package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func quickEnv(buf *bytes.Buffer) *Env {
	return NewEnv(buf).Quick()
}

func TestEnvDatasetCaching(t *testing.T) {
	e := quickEnv(nil)
	g1, err := e.Dataset("FB")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := e.Dataset("FB")
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("dataset not cached")
	}
	if g1.N() < 400 {
		t.Fatalf("quick FB too small: n=%d", g1.N())
	}
	if _, err := e.Dataset("NOPE"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestSampleQueries(t *testing.T) {
	e := quickEnv(nil)
	g, err := e.Dataset("FB")
	if err != nil {
		t.Fatal(err)
	}
	q1 := e.SampleQueries(g, 50)
	q2 := e.SampleQueries(g, 50)
	if len(q1) != 50 {
		t.Fatalf("got %d queries", len(q1))
	}
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatal("query sampling not deterministic")
		}
		if i > 0 && q1[i] <= q1[i-1] {
			t.Fatal("queries not distinct/sorted")
		}
	}
	// q > n clamps.
	if got := e.SampleQueries(g, g.N()+100); len(got) != g.N() {
		t.Fatalf("clamp failed: %d", len(got))
	}
}

func TestRunCellMeasures(t *testing.T) {
	e := quickEnv(nil)
	g, err := e.Dataset("FB")
	if err != nil {
		t.Fatal(err)
	}
	queries := e.SampleQueries(g, 10)
	m, err := e.RunCell("CSR+", e.Config(5), "FB", g, queries)
	if err != nil {
		t.Fatal(err)
	}
	if m.Skipped {
		t.Fatalf("CSR+ skipped: %s", m.Reason)
	}
	if m.PrecompTime <= 0 || m.QueryTime <= 0 {
		t.Fatalf("times not measured: %+v", m)
	}
	if m.PrecompBytes <= 0 || m.QueryBytes <= 0 || m.PeakBytes <= 0 {
		t.Fatalf("bytes not measured: %+v", m)
	}
	if m.TotalTime() != m.PrecompTime+m.QueryTime {
		t.Fatal("TotalTime wrong")
	}
}

func TestRunCellMemGuard(t *testing.T) {
	e := quickEnv(nil)
	e.MemBudget = 1 // everything over budget
	g, err := e.Dataset("FB")
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.RunCell("CSR-IT", e.Config(5), "FB", g, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Skipped || m.Reason != "MEM" {
		t.Fatalf("guard did not trip: %+v", m)
	}
	if m.EstBytes <= 0 {
		t.Fatal("estimate not recorded")
	}
}

func TestRunCellTimeGuard(t *testing.T) {
	e := quickEnv(nil)
	e.FlopBudget = 1
	g, err := e.Dataset("FB")
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.RunCell("CSR-RLS", e.Config(5), "FB", g, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Skipped || m.Reason != "TIME" {
		t.Fatalf("guard did not trip: %+v", m)
	}
}

func TestRunCellUnknownAlgo(t *testing.T) {
	e := quickEnv(nil)
	g, err := e.Dataset("FB")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunCell("bogus", e.Config(5), "FB", g, []int{0}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunGridShape(t *testing.T) {
	var buf bytes.Buffer
	e := quickEnv(&buf)
	grid, err := e.RunGrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != len(GridDatasets) {
		t.Fatalf("cells for %d datasets", len(grid.Cells))
	}
	// CSR+ must run everywhere; the paper's headline.
	for _, ds := range grid.Datasets {
		m := grid.Cells[ds]["CSR+"]
		if m.Skipped {
			t.Fatalf("CSR+ skipped on %s (%s)", ds, m.Reason)
		}
	}
	// The quadratic methods must trip a guard on the largest stand-ins.
	for _, algo := range []string{"CSR-IT", "CSR-NI"} {
		if m := grid.Cells["TW"][algo]; !m.Skipped {
			t.Fatalf("%s unexpectedly ran on TW under quick budget", algo)
		}
	}
	// The paper's "CSR+ wins by orders of magnitude" shows at realistic
	// scale (the full csrbench run recorded in EXPERIMENTS.md); on the
	// few-hundred-node quick stand-ins, fixed SVD overhead can let a
	// trivial baseline tie. Sanity band only: no surviving rival may beat
	// CSR+ by more than 5x here.
	for _, ds := range grid.Datasets {
		best := grid.Cells[ds]["CSR+"].TotalTime()
		for _, algo := range []string{"CSR-RLS", "CSR-IT", "CSR-NI"} {
			m := grid.Cells[ds][algo]
			if !m.Skipped && m.TotalTime()*5 < best {
				t.Fatalf("%s beat CSR+ 5x on %s (%v vs %v)", algo, ds, m.TotalTime(), best)
			}
		}
	}
	grid.RenderFig2(e)
	grid.RenderFig6(e)
	out := buf.String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "Figure 6") {
		t.Fatalf("renders missing headers:\n%s", out)
	}
	if !strings.Contains(out, "✗") {
		t.Fatal("no guard markers rendered")
	}
}

func TestRunPhaseSweep(t *testing.T) {
	var buf bytes.Buffer
	e := quickEnv(&buf)
	s, err := e.RunPhaseSweep([]int{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range s.Datasets {
		if len(s.QueryCells[ds]) != 2 {
			t.Fatalf("%s: %d cells", ds, len(s.QueryCells[ds]))
		}
		// Query memory grows with |Q| (Figure 7's observation).
		if s.QueryCells[ds][1].QueryBytes <= s.QueryCells[ds][0].QueryBytes {
			t.Fatalf("%s: query bytes not growing with |Q|", ds)
		}
		if s.Pre[ds].PrecompTime <= 0 {
			t.Fatalf("%s: no precompute time", ds)
		}
	}
	s.RenderFig3(e)
	s.RenderFig7(e)
	if !strings.Contains(buf.String(), "Figure 3") || !strings.Contains(buf.String(), "Figure 7") {
		t.Fatal("phase renders missing")
	}
}

func TestRunRankSweep(t *testing.T) {
	var buf bytes.Buffer
	e := quickEnv(&buf)
	s, err := e.RunRankSweep([]int{3, 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range s.Datasets {
		cells := s.Cells[ds]["CSR+"]
		if len(cells) != 2 {
			t.Fatalf("%s: %d rank cells", ds, len(cells))
		}
		for _, m := range cells {
			if m.Skipped {
				t.Fatalf("CSR+ skipped on %s at r=%d", ds, m.Rank)
			}
		}
		// CSR+ memory grows with rank (Figure 8: "gently increases").
		if cells[1].PeakBytes <= cells[0].PeakBytes {
			t.Fatalf("%s: CSR+ memory flat across ranks", ds)
		}
	}
	s.RenderFig4(e)
	s.RenderFig8(e)
	if !strings.Contains(buf.String(), "Figure 4") || !strings.Contains(buf.String(), "Figure 8") {
		t.Fatal("rank sweep renders missing")
	}
}

func TestRunQuerySweep(t *testing.T) {
	var buf bytes.Buffer
	e := quickEnv(&buf)
	s, err := e.RunQuerySweep([]int{10, 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range s.Datasets {
		cp := s.Cells[ds]["CSR+"]
		// CSR+ total time is |Q|-insensitive: precompute dominates.
		if cp[1].Skipped || cp[0].Skipped {
			t.Fatalf("%s: CSR+ skipped", ds)
		}
		rls := s.Cells[ds]["CSR-RLS"]
		if !rls[0].Skipped && !rls[1].Skipped {
			// RLS query time grows with |Q| (Figure 5's observation);
			// allow generous noise on tiny quick-mode graphs.
			if rls[1].QueryTime < rls[0].QueryTime/2 {
				t.Fatalf("%s: RLS query time shrank with 4x |Q|", ds)
			}
		}
	}
	s.RenderFig5(e)
	s.RenderFig9(e)
	if !strings.Contains(buf.String(), "Figure 5") || !strings.Contains(buf.String(), "Figure 9") {
		t.Fatal("query sweep renders missing")
	}
}

func TestRunTable3(t *testing.T) {
	var buf bytes.Buffer
	e := quickEnv(&buf)
	res, err := e.RunTable3([]int{10, 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range res.Datasets {
		cells := res.Cells[ds]
		if len(cells) != 2 {
			t.Fatalf("%s: %d cells", ds, len(cells))
		}
		// Table 3's trend (AvgDiff shrinking with rank) is asserted
		// precisely in internal/core on controlled graphs; the tiny
		// quick-mode stand-ins only support a coarse sanity band here.
		if cells[1].AvgDiff > cells[0].AvgDiff*3+1e-12 {
			t.Fatalf("%s: AvgDiff exploded with rank: %v -> %v",
				ds, cells[0].AvgDiff, cells[1].AvgDiff)
		}
		for _, c := range cells {
			if c.AvgDiff < 0 {
				t.Fatalf("negative AvgDiff %v", c.AvgDiff)
			}
			if c.NIRan && c.NIAvgDiff < 0 {
				t.Fatalf("negative NI AvgDiff")
			}
		}
	}
	res.Render(e)
	if !strings.Contains(buf.String(), "Table 3") {
		t.Fatal("table 3 render missing")
	}
}

func TestRenderTable1(t *testing.T) {
	var buf bytes.Buffer
	RenderTable1(&buf)
	out := buf.String()
	for _, want := range []string{"CSR+", "O(rn)", "F-CoSim", "CoSimMate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTableRender(t *testing.T) {
	var buf bytes.Buffer
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("xxx", "y")
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== T ==") || !strings.Contains(out, "xxx") {
		t.Fatalf("render = %q", out)
	}
	// nil writer must not panic.
	tb.Render(nil)
}

func TestFmtDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{1500 * time.Millisecond, "1.50s"},
		{2500 * time.Microsecond, "2.50ms"},
		{700 * time.Microsecond, "700µs"},
	}
	for _, c := range cases {
		if got := fmtDuration(c.d); got != c.want {
			t.Fatalf("fmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestRunAblation(t *testing.T) {
	var buf bytes.Buffer
	e := quickEnv(&buf)
	res, err := e.RunAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range res.Datasets {
		if len(res.Query[ds]) != 2 {
			t.Fatalf("%s: %d query cells", ds, len(res.Query[ds]))
		}
		for _, c := range res.Query[ds] {
			if !c.Skipped && c.Time <= 0 {
				t.Fatalf("%s: unmeasured cell %+v", ds, c)
			}
		}
	}
	res.Render(e)
	if out := buf.String(); !strings.Contains(out, "query route") {
		t.Fatalf("ablation render missing %q", "query route")
	}
}

func TestRunRankEval(t *testing.T) {
	var buf bytes.Buffer
	e := quickEnv(&buf)
	res, err := e.RunRankEval([]int{5, 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range res.Datasets {
		cells := res.Cells[ds]
		if len(cells) != 2 {
			t.Fatalf("%s: %d cells", ds, len(cells))
		}
		for _, c := range cells {
			if c.PrecisionAt < 0 || c.PrecisionAt > 1 || c.NDCGAt < 0 || c.NDCGAt > 1.000001 {
				t.Fatalf("%s: metric out of range %+v", ds, c)
			}
			if c.Spearman < -1 || c.Spearman > 1 {
				t.Fatalf("%s: spearman out of range %+v", ds, c)
			}
		}
		// Higher rank should not make ranking quality much worse.
		if cells[1].NDCGAt < cells[0].NDCGAt-0.15 {
			t.Fatalf("%s: NDCG collapsed with rank: %+v", ds, cells)
		}
	}
	res.Render(e)
	if !strings.Contains(buf.String(), "ranking quality") {
		t.Fatal("rankeval render missing")
	}
}

func TestRenderDatasets(t *testing.T) {
	var buf bytes.Buffer
	e := quickEnv(&buf)
	if err := e.RenderDatasets(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, key := range GridDatasets {
		if !strings.Contains(out, key) {
			t.Fatalf("dataset table missing %s:\n%s", key, out)
		}
	}
	// The social/web stand-ins must register as heavy-tailed.
	if !strings.Contains(out, "true") {
		t.Fatal("no heavy-tailed stand-in detected")
	}
}

func TestProgressHeartbeat(t *testing.T) {
	var progress bytes.Buffer
	e := quickEnv(nil)
	e.Progress = &progress
	g, err := e.Dataset("FB")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunCell("CSR+", e.Config(5), "FB", g, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	e.MemBudget = 1
	if _, err := e.RunCell("CSR-IT", e.Config(5), "FB", g, []int{0}); err != nil {
		t.Fatal(err)
	}
	out := progress.String()
	if !strings.Contains(out, "CSR+") || !strings.Contains(out, "pre=") {
		t.Fatalf("no run heartbeat:\n%s", out)
	}
	if !strings.Contains(out, "skipped (MEM") {
		t.Fatalf("no skip heartbeat:\n%s", out)
	}
}

func TestRunCSweep(t *testing.T) {
	var buf bytes.Buffer
	e := quickEnv(&buf)
	res, err := e.RunCSweep([]float64{0.3, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range res.Datasets {
		cells := res.Cells[ds]
		if len(cells) != 2 {
			t.Fatalf("%s: %d cells", ds, len(cells))
		}
		// Larger c needs more squaring iterations.
		if cells[1].Iterations <= cells[0].Iterations {
			t.Fatalf("%s: iterations %d -> %d not increasing with c",
				ds, cells[0].Iterations, cells[1].Iterations)
		}
		for _, cell := range cells {
			if cell.AvgDiff < 0 || cell.Precompute <= 0 {
				t.Fatalf("%s: bad cell %+v", ds, cell)
			}
		}
	}
	res.Render(e)
	if !strings.Contains(buf.String(), "damping factor") {
		t.Fatal("csweep render missing")
	}
}
