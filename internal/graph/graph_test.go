package graph

import (
	"errors"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"csrplus/internal/sparse"
)

// paperGraph builds the 6-node Wiki-Talk graph of the paper's Figure 1 /
// Example 3.6 (nodes a..f = 0..5).
func paperGraph(t *testing.T) *Graph {
	t.Helper()
	edges := [][2]int{
		{3, 0},                 // d->a
		{0, 1}, {2, 1}, {4, 1}, // a,c,e -> b
		{3, 2},                 // d->c
		{0, 3}, {4, 3}, {5, 3}, // a,e,f -> d
		{2, 4}, {5, 4}, // c,f -> e
		{3, 5}, // d->f
	}
	coo := sparse.NewCOO(6, 6)
	for _, e := range edges {
		if err := coo.Add(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return New(coo)
}

func TestGraphBasics(t *testing.T) {
	g := paperGraph(t)
	if g.N() != 6 || g.M() != 11 {
		t.Fatalf("N=%d M=%d, want 6, 11", g.N(), g.M())
	}
	if !g.HasEdge(3, 0) || g.HasEdge(0, 5) {
		t.Fatal("HasEdge wrong")
	}
	if g.OutDegree(3) != 3 {
		t.Fatalf("OutDegree(d) = %d, want 3", g.OutDegree(3))
	}
	in := g.InDegrees()
	want := []int{1, 3, 1, 3, 2, 1}
	for i, d := range want {
		if in[i] != d {
			t.Fatalf("InDegrees = %v, want %v", in, want)
		}
	}
}

func TestTransitionMatchesPaper(t *testing.T) {
	// The Q matrix printed in Example 3.6.
	g := paperGraph(t)
	q, err := g.Transition()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{0, 1.0 / 3, 0, 1.0 / 3, 0, 0},
		{0, 0, 0, 0, 0, 0},
		{0, 1.0 / 3, 0, 0, 0.5, 0},
		{1, 0, 1, 0, 0, 1},
		{0, 1.0 / 3, 0, 1.0 / 3, 0, 0},
		{0, 0, 0, 1.0 / 3, 0.5, 0},
	}
	for i := range want {
		for j := range want[i] {
			if math.Abs(q.At(i, j)-want[i][j]) > 1e-15 {
				t.Fatalf("Q[%d][%d] = %v, want %v", i, j, q.At(i, j), want[i][j])
			}
		}
	}
	// Columns with in-edges must sum to 1.
	for j, s := range q.ColSums() {
		if s != 0 && math.Abs(s-1) > 1e-12 {
			t.Fatalf("column %d sums to %v", j, s)
		}
	}
}

func TestTransitionEmptyGraph(t *testing.T) {
	g := New(sparse.NewCOO(0, 0))
	if _, err := g.Transition(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

// TestSupportTransitionIsTransitionsSupport holds the support block phase I
// decomposes, built straight from the adjacency, to the block Support cuts
// out of Transition — shape, ids, and every stored index and value bit for
// bit — on the paper's graph, a seeded R-MAT graph with many empty rows and
// columns, and a weighted graph; and without writing to the adjacency.
func TestSupportTransitionIsTransitionsSupport(t *testing.T) {
	rmat, err := RMAT(10, 3000, DefaultRMAT, 7)
	if err != nil {
		t.Fatal(err)
	}
	coo := sparse.NewCOO(5, 5)
	for _, e := range [][3]float64{{0, 1, 2.5}, {2, 1, 0.5}, {2, 4, 3}, {4, 1, 1.0 / 3}} {
		if err := coo.Add(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	weighted, err := FromWeightedCSR(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"paper": paperGraph(t), "rmat": rmat, "weighted": weighted} {
		adj := g.Adj().Clone()
		q, err := g.Transition()
		if err != nil {
			t.Fatal(err)
		}
		want, wantRows, wantCols := q.Support()
		got, rows, cols, err := g.SupportTransition()
		if err != nil {
			t.Fatal(err)
		}
		wr, wc := want.Dims()
		if gr, gc := got.Dims(); gr != wr || gc != wc || !slices.Equal(rows, wantRows) || !slices.Equal(cols, wantCols) ||
			(rows == nil) != (wantRows == nil) || (cols == nil) != (wantCols == nil) {
			t.Fatalf("%s: support %dx%d ids %v / %v, want %dx%d ids %v / %v", name, gr, gc, rows, cols, wr, wc, wantRows, wantCols)
		}
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.ColIdx, want.ColIdx) || len(got.Val) != len(want.Val) {
			t.Fatalf("%s: index arrays differ from Transition().Support()'s", name)
		}
		for p := range got.Val {
			if math.Float64bits(got.Val[p]) != math.Float64bits(want.Val[p]) {
				t.Fatalf("%s: value %d is %v, Transition's %v", name, p, got.Val[p], want.Val[p])
			}
		}
		if a := g.Adj(); !slices.Equal(a.Val, adj.Val) || !slices.Equal(a.ColIdx, adj.ColIdx) || !slices.Equal(a.RowPtr, adj.RowPtr) {
			t.Fatalf("%s: SupportTransition wrote to the adjacency", name)
		}
	}
	if _, _, _, err := New(sparse.NewCOO(0, 0)).SupportTransition(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty graph: err = %v, want ErrEmpty", err)
	}
}

func TestFromCSRRejectsNonSquare(t *testing.T) {
	if _, err := FromCSR(sparse.NewCOO(2, 3).ToCSR()); err == nil {
		t.Fatal("non-square adjacency accepted")
	}
}

func TestParallelEdgesCollapse(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	for i := 0; i < 3; i++ {
		if err := coo.Add(0, 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	g := New(coo)
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (parallel edges collapsed)", g.M())
	}
	q, err := g.Transition()
	if err != nil {
		t.Fatal(err)
	}
	if q.At(0, 1) != 1 {
		t.Fatalf("Q[0][1] = %v, want 1", q.At(0, 1))
	}
}

func TestComputeStats(t *testing.T) {
	g := paperGraph(t)
	s := g.ComputeStats()
	if s.N != 6 || s.M != 11 || s.MaxInDeg != 3 || s.MaxOutDeg != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ZeroOutDeg != 1 { // node b has no out-edges
		t.Fatalf("ZeroOutDeg = %d, want 1", s.ZeroOutDeg)
	}
	if s.ZeroInDeg != 0 {
		t.Fatalf("ZeroInDeg = %d, want 0", s.ZeroInDeg)
	}
	if math.Abs(s.AvgDegree-11.0/6) > 1e-12 {
		t.Fatalf("AvgDegree = %v", s.AvgDegree)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := paperGraph(t)
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path, 6)
	if err != nil {
		t.Fatal(err)
	}
	if back.M() != g.M() {
		t.Fatalf("round trip M %d -> %d", g.M(), back.M())
	}
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			if g.HasEdge(u, v) != back.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) mismatch after round trip", u, v)
			}
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.txt"), 3); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestReadMalformed(t *testing.T) {
	if _, err := Read(strings.NewReader("0 potato\n"), 3); !errors.Is(err, sparse.ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestReadRejectsHostileInput(t *testing.T) {
	// Truncated records (a crash mid-write leaves a partial last line).
	for _, in := range []string{"0 1\n2\n", "0 1\n2 ", "0\n"} {
		if _, err := Read(strings.NewReader(in), 3); !errors.Is(err, sparse.ErrMalformed) {
			t.Fatalf("Read(%q) = %v, want ErrMalformed", in, err)
		}
	}
	// Out-of-range node ids are typed, not silently clamped or dropped.
	for _, in := range []string{"0 3\n", "3 0\n", "-1 0\n"} {
		if _, err := Read(strings.NewReader(in), 3); !errors.Is(err, sparse.ErrIndex) {
			t.Fatalf("Read(%q) = %v, want ErrIndex", in, err)
		}
	}
}

func TestReadWeightedRejectsHostileInput(t *testing.T) {
	for _, in := range []string{"0 1\n", "0 1 2.5\n1 2\n"} {
		if _, err := ReadWeighted(strings.NewReader(in), 3); !errors.Is(err, sparse.ErrMalformed) {
			t.Fatalf("ReadWeighted(%q) = %v, want ErrMalformed", in, err)
		}
	}
	if _, err := ReadWeighted(strings.NewReader("0 3 1.0\n"), 3); !errors.Is(err, sparse.ErrIndex) {
		t.Fatalf("out-of-range id: %v, want ErrIndex", err)
	}
	// Weights without a random-surfer reading: NaN, ±Inf, zero, negative.
	for _, in := range []string{"0 1 NaN\n", "0 1 Inf\n", "0 1 -Inf\n", "0 1 0\n", "0 1 -2\n", "0 1 x\n"} {
		if _, err := ReadWeighted(strings.NewReader(in), 3); !errors.Is(err, sparse.ErrMalformed) {
			t.Fatalf("ReadWeighted(%q) = %v, want ErrMalformed", in, err)
		}
	}
}

func TestNewWeightedRejectsNonFiniteSums(t *testing.T) {
	// The reader blocks literal NaN/Inf, but programmatic COO input (and
	// duplicate sums that overflow) must be caught by NewWeighted itself.
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		coo := sparse.NewCOO(2, 2)
		if err := coo.Add(0, 1, w); err != nil {
			t.Fatal(err)
		}
		if _, err := NewWeighted(coo); !errors.Is(err, ErrBadWeight) {
			t.Fatalf("NewWeighted(weight %v) = %v, want ErrBadWeight", w, err)
		}
	}
	// Duplicates summing past the float range land on +Inf.
	coo := sparse.NewCOO(2, 2)
	for i := 0; i < 2; i++ {
		if err := coo.Add(0, 1, math.MaxFloat64); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewWeighted(coo); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("overflowing duplicate sum: %v, want ErrBadWeight", err)
	}
}

// FromWeightedCSR refuses what NewWeighted refuses and keeps what it keeps.
func TestFromWeightedCSR(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		coo := sparse.NewCOO(2, 2)
		if err := coo.Add(0, 1, w); err != nil {
			t.Fatal(err)
		}
		if _, err := FromWeightedCSR(coo.ToCSR()); !errors.Is(err, ErrBadWeight) {
			t.Fatalf("FromWeightedCSR(weight %v) = %v, want ErrBadWeight", w, err)
		}
	}
	coo := sparse.NewCOO(3, 3)
	for _, e := range [][3]float64{{0, 1, 2.5}, {2, 0, 0.25}} {
		if err := coo.Add(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := FromWeightedCSR(coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() || g.M() != 2 || g.Adj().At(0, 1) != 2.5 || g.Adj().At(2, 0) != 0.25 {
		t.Fatalf("FromWeightedCSR: weighted=%v m=%d, (0,1)=%v, (2,0)=%v", g.Weighted(), g.M(), g.Adj().At(0, 1), g.Adj().At(2, 0))
	}
	if _, err := FromWeightedCSR(sparse.NewCOO(2, 3).ToCSR()); err == nil {
		t.Fatal("FromWeightedCSR accepted a non-square adjacency")
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(100, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 || g.M() != 500 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	// No self loops.
	for u := 0; u < 100; u++ {
		if g.HasEdge(u, u) {
			t.Fatalf("self loop at %d", u)
		}
	}
	// Determinism.
	g2, err := ErdosRenyi(100, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() || !g2.Adj().ToDense().Equal(g.Adj().ToDense(), 0) {
		t.Fatal("ErdosRenyi not deterministic")
	}
}

func TestErdosRenyiErrors(t *testing.T) {
	if _, err := ErdosRenyi(1, 0, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := ErdosRenyi(3, 7, 1); err == nil {
		t.Fatal("m > n(n-1) accepted")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g, err := BarabasiAlbert(200, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 {
		t.Fatalf("N = %d", g.N())
	}
	// Symmetric by construction.
	for u := 0; u < g.N(); u++ {
		adj := g.Adj()
		for p := adj.RowPtr[u]; p < adj.RowPtr[u+1]; p++ {
			v := int(adj.ColIdx[p])
			if !g.HasEdge(v, u) {
				t.Fatalf("edge (%d,%d) not symmetric", u, v)
			}
		}
	}
	// Heavy tail: max degree far above the attachment constant.
	if s := g.ComputeStats(); s.MaxOutDeg < 10 {
		t.Fatalf("BA max degree %d suspiciously small", s.MaxOutDeg)
	}
	// Determinism.
	g2, _ := BarabasiAlbert(200, 3, 2)
	if !g2.Adj().ToDense().Equal(g.Adj().ToDense(), 0) {
		t.Fatal("BarabasiAlbert not deterministic")
	}
}

func TestBarabasiAlbertErrors(t *testing.T) {
	for _, c := range [][2]int{{1, 1}, {5, 0}, {5, 5}} {
		if _, err := BarabasiAlbert(c[0], c[1], 1); err == nil {
			t.Fatalf("BA(%d, %d) accepted", c[0], c[1])
		}
	}
}

func TestWattsStrogatz(t *testing.T) {
	g, err := WattsStrogatz(100, 3, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != 600 { // n*k undirected edges, doubled
		t.Fatalf("M = %d, want 600", g.M())
	}
	g2, _ := WattsStrogatz(100, 3, 0.1, 3)
	if !g2.Adj().ToDense().Equal(g.Adj().ToDense(), 0) {
		t.Fatal("WattsStrogatz not deterministic")
	}
}

func TestWattsStrogatzErrors(t *testing.T) {
	if _, err := WattsStrogatz(4, 2, 0.1, 1); err == nil {
		t.Fatal("2k >= n accepted")
	}
	if _, err := WattsStrogatz(10, 2, 1.5, 1); err == nil {
		t.Fatal("beta > 1 accepted")
	}
}

func TestRMAT(t *testing.T) {
	g, err := RMAT(10, 5000, DefaultRMAT, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1024 {
		t.Fatalf("N = %d, want 1024", g.N())
	}
	if g.M() < 4500 || g.M() > 5000 {
		t.Fatalf("M = %d, want ~5000", g.M())
	}
	// Power-law-ish: the max degree should dwarf the average.
	s := g.ComputeStats()
	if float64(s.MaxInDeg) < 5*s.AvgDegree {
		t.Fatalf("RMAT skew too weak: max in-degree %d, avg %v", s.MaxInDeg, s.AvgDegree)
	}
	g2, _ := RMAT(10, 5000, DefaultRMAT, 4)
	if !g2.Adj().ToDense().Equal(g.Adj().ToDense(), 0) {
		t.Fatal("RMAT not deterministic")
	}
}

func TestRMATErrors(t *testing.T) {
	if _, err := RMAT(0, 10, DefaultRMAT, 1); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, err := RMAT(35, 10, DefaultRMAT, 1); err == nil {
		t.Fatal("scale 35 accepted")
	}
	if _, err := RMAT(5, 10, RMATParams{A: 1, B: 1, C: 1, D: 1}, 1); err == nil {
		t.Fatal("bad params accepted")
	}
	// The edges are directed: n(n-1) of them fit, not n(n-1)/2.
	if _, err := RMAT(3, 56, DefaultRMAT, 1); err != nil {
		t.Fatalf("m = n(n-1) refused: %v", err)
	}
	if _, err := RMAT(3, 57, DefaultRMAT, 1); err == nil || err.Error() != "graph: RMAT m=57 out of range for n=8" {
		t.Fatalf("m = n(n-1)+1: err = %v", err)
	}
}

func TestDatasetByKey(t *testing.T) {
	d, err := DatasetByKey("FB")
	if err != nil {
		t.Fatal(err)
	}
	if d.PaperN != 4039 || d.PaperM != 88234 {
		t.Fatalf("FB descriptor = %+v", d)
	}
	if _, err := DatasetByKey("NOPE"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestDatasetGenerateSmall(t *testing.T) {
	// Generate every dataset at an aggressive extra downscale so the test
	// stays fast, checking each lands near its target shape.
	for _, d := range Datasets {
		scale := d.Scale * 8
		if d.Key == "FB" || d.Key == "P2P" {
			scale = 4
		}
		g, err := d.GenerateScaled(scale)
		if err != nil {
			t.Fatalf("%s: %v", d.Key, err)
		}
		// Nodes is what csrserver checks a loaded index against instead of
		// generating: it must be the n Generate produces, for every key.
		if got := d.Nodes(scale); got != g.N() {
			t.Fatalf("%s: Nodes(%d) = %d, but GenerateScaled produced n = %d", d.Key, scale, got, g.N())
		}
		wantN := int(d.PaperN / scale)
		if d.Kind == GenRMAT {
			// R-MAT rounds up to a power of two.
			if g.N() < wantN {
				t.Fatalf("%s: N = %d < target %d", d.Key, g.N(), wantN)
			}
		} else if g.N() != wantN {
			t.Fatalf("%s: N = %d, want %d", d.Key, g.N(), wantN)
		}
		wantM := d.PaperM / scale
		if g.M() < wantM/2 || g.M() > wantM*2+int64(4*g.N()) {
			t.Fatalf("%s: M = %d, target %d", d.Key, g.M(), wantM)
		}
	}
}

func TestDatasetScaleError(t *testing.T) {
	d, _ := DatasetByKey("FB")
	if _, err := d.GenerateScaled(0); err == nil {
		t.Fatal("scale 0 accepted")
	}
}

func TestNewWeighted(t *testing.T) {
	coo := sparse.NewCOO(3, 3)
	// Node 2's in-neighbours: 0 with weight 3, 1 with weight 1.
	for _, e := range []sparse.Triple{{Row: 0, Col: 2, Val: 3}, {Row: 1, Col: 2, Val: 1}} {
		if err := coo.Add(e.Row, e.Col, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	g, err := NewWeighted(coo)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("Weighted() = false")
	}
	q, err := g.Transition()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.At(0, 2)-0.75) > 1e-15 || math.Abs(q.At(1, 2)-0.25) > 1e-15 {
		t.Fatalf("weighted column = %v, %v", q.At(0, 2), q.At(1, 2))
	}
}

func TestNewWeightedDuplicatesSum(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	for i := 0; i < 2; i++ {
		if err := coo.Add(0, 1, 1.5); err != nil {
			t.Fatal(err)
		}
	}
	g, err := NewWeighted(coo)
	if err != nil {
		t.Fatal(err)
	}
	if g.Adj().At(0, 1) != 3 {
		t.Fatalf("weight = %v, want 3 (summed)", g.Adj().At(0, 1))
	}
}

func TestNewWeightedRejectsNonPositive(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	if err := coo.Add(0, 1, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWeighted(coo); err == nil {
		t.Fatal("negative weight accepted")
	}
	coo2 := sparse.NewCOO(2, 2)
	if err := coo2.Add(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := coo2.Add(0, 1, -2); err != nil { // sums to zero
		t.Fatal(err)
	}
	if _, err := NewWeighted(coo2); err == nil {
		t.Fatal("zero accumulated weight accepted")
	}
}

func TestUnweightedTransitionUnchanged(t *testing.T) {
	// The ColSums-based normalisation must coincide with 1/indeg on
	// unweighted graphs.
	g := paperGraph(t)
	if g.Weighted() {
		t.Fatal("paper graph reported weighted")
	}
	q, err := g.Transition()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.At(0, 1)-1.0/3) > 1e-15 {
		t.Fatalf("Q[0][1] = %v", q.At(0, 1))
	}
}
