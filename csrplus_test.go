package csrplus

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// paperEdges is the 6-node graph of the paper's Figure 1 (a..f = 0..5).
var paperEdges = [][2]int{
	{3, 0}, {0, 1}, {2, 1}, {4, 1}, {3, 2},
	{0, 3}, {4, 3}, {5, 3}, {2, 4}, {5, 4}, {3, 5},
}

func paperGraph(t testing.TB) *Graph {
	t.Helper()
	g, err := NewGraph(6, paperEdges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGraph(t *testing.T) {
	g := paperGraph(t)
	if g.N() != 6 || g.M() != 11 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if !g.HasEdge(3, 0) || g.HasEdge(1, 0) {
		t.Fatal("HasEdge wrong")
	}
}

func TestNewGraphBadEdge(t *testing.T) {
	if _, err := NewGraph(3, [][2]int{{0, 5}}); !errors.Is(err, ErrBadEdge) {
		t.Fatalf("err = %v, want ErrBadEdge", err)
	}
}

func TestReadAndSaveGraph(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("0 1\n1 2\n"), 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadGraph(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if back.M() != 2 {
		t.Fatalf("M = %d", back.M())
	}
}

func TestGenerateDataset(t *testing.T) {
	g, err := GenerateDataset("P2P", 8)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 22687/8 {
		t.Fatalf("N = %d", g.N())
	}
	if _, err := GenerateDataset("NOPE", 0); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestDatasetKeys(t *testing.T) {
	keys := DatasetKeys()
	want := []string{"FB", "P2P", "YT", "WT", "TW", "WB"}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

func TestEngineDefaultsToCSRPlus(t *testing.T) {
	eng, err := NewEngine(paperGraph(t), Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Algorithm != AlgoCSRPlus || st.N != 6 || st.M != 11 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PrecomputeTime <= 0 || st.PeakBytes <= 0 {
		t.Fatalf("counters not recorded: %+v", st)
	}
}

func TestEngineQueryMatchesPaperExample(t *testing.T) {
	eng, err := NewEngine(paperGraph(t), Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	cols, err := eng.Query([]int{1, 3}) // b, d
	if err != nil {
		t.Fatal(err)
	}
	wantB := []float64{0.16, 1.49, 0.16, 0.49, 0.48, 0.16}
	wantD := []float64{0.16, 0.49, 0.16, 1.49, 0.48, 0.16}
	for i := 0; i < 6; i++ {
		if math.Abs(cols[0][i]-wantB[i]) > 0.02 || math.Abs(cols[1][i]-wantD[i]) > 0.02 {
			t.Fatalf("cols = %v / %v", cols[0], cols[1])
		}
	}
}

func TestEngineAllAlgorithms(t *testing.T) {
	g := paperGraph(t)
	for _, algo := range Algorithms() {
		eng, err := NewEngine(g, Options{Algorithm: algo, Rank: 3})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		col, err := eng.QueryOne(3)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(col) != 6 {
			t.Fatalf("%s: len = %d", algo, len(col))
		}
		// Self-similarity must be the column's max for every method.
		for i, v := range col {
			if i != 3 && v > col[3] {
				t.Fatalf("%s: S[%d]=%v exceeds self-similarity %v", algo, i, v, col[3])
			}
		}
	}
}

func TestEngineUnknownAlgorithm(t *testing.T) {
	if _, err := NewEngine(paperGraph(t), Options{Algorithm: "bogus"}); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

func TestEngineNilGraph(t *testing.T) {
	if _, err := NewEngine(nil, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestTopK(t *testing.T) {
	eng, err := NewEngine(paperGraph(t), Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	top, err := eng.TopK(1, 3) // most similar to b
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("got %d matches", len(top))
	}
	for _, m := range top {
		if m.Node == 1 {
			t.Fatal("query node in its own results")
		}
	}
	// b and d share in-neighbour structure; d must rank first.
	if top[0].Node != 3 {
		t.Fatalf("top match for b = %+v, want node 3 (d)", top[0])
	}
	if top[0].Score < top[1].Score {
		t.Fatal("results not sorted")
	}
}

func TestTopKMulti(t *testing.T) {
	eng, err := NewEngine(paperGraph(t), Options{Algorithm: AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	top, err := eng.TopKMulti([]int{1, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("got %d", len(top))
	}
	for _, m := range top {
		if m.Node == 1 || m.Node == 3 {
			t.Fatal("query nodes not excluded")
		}
	}
}

func TestQueryErrors(t *testing.T) {
	eng, err := NewEngine(paperGraph(t), Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query([]int{17}); err == nil {
		t.Fatal("out-of-range query accepted")
	}
	if _, err := eng.Query(nil); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestConcurrentQueries(t *testing.T) {
	eng, err := NewEngine(paperGraph(t), Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.QueryOne(2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			col, err := eng.QueryOne(2)
			if err != nil {
				errs <- err
				return
			}
			for i := range col {
				if col[i] != ref[i] {
					errs <- errors.New("concurrent query mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestCrossAlgorithmConsistency(t *testing.T) {
	// CSR+ at full rank, IT/RLS at high iteration count and Exact must
	// agree on a mid-size random graph's query block.
	g, err := GenerateDataset("P2P", 64) // n ≈ 354
	if err != nil {
		t.Fatal(err)
	}
	queries := []int{0, 10, 100, 200}
	exact, err := NewEngine(g, Options{Algorithm: AlgoExact, Eps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.Query(queries)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewEngine(g, Options{Algorithm: AlgoIT, Rank: 40})
	if err != nil {
		t.Fatal(err)
	}
	got, err := it.Query(queries)
	if err != nil {
		t.Fatal(err)
	}
	for j := range queries {
		for i := range got[j] {
			if math.Abs(got[j][i]-want[j][i]) > 1e-6 {
				t.Fatalf("IT vs Exact at (%d, %d): %v vs %v", i, j, got[j][i], want[j][i])
			}
		}
	}
}

func TestSaveLoadEngineIndex(t *testing.T) {
	g := paperGraph(t)
	eng, err := NewEngine(g, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, path, err := eng.SaveSnapshot(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadEngine(g, path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.QueryOne(1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.QueryOne(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("loaded engine answers differently")
		}
	}
	if back.Stats().Algorithm != AlgoCSRPlus {
		t.Fatal("loaded engine algorithm wrong")
	}
}

func TestSaveSnapshotLifecycle(t *testing.T) {
	g := paperGraph(t)
	eng, err := NewEngine(g, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Rank != 3 {
		t.Fatalf("Stats().Rank = %d, want 3", eng.Stats().Rank)
	}
	dir := filepath.Join(t.TempDir(), "snaps")
	gen1, path1, err := eng.SaveSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gen1 != 1 {
		t.Fatalf("first snapshot generation %d", gen1)
	}
	gen2, _, err := eng.SaveSnapshot(dir)
	if err != nil || gen2 != 2 {
		t.Fatalf("second snapshot: gen=%d err=%v", gen2, err)
	}
	// Old generations stay loadable (rollback), and a loaded engine
	// answers identically to the one that published it.
	back, err := LoadEngine(g, path1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.QueryOne(1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.QueryOne(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("snapshot engine answers differently")
		}
	}
	if back.Stats().Rank != 3 {
		t.Fatalf("loaded Stats().Rank = %d, want 3", back.Stats().Rank)
	}
}

// Baselines have no persistable index to snapshot, at any tier. The
// name predates the one index writer.
func TestSaveIndexRejectsBaselines(t *testing.T) {
	eng, err := NewEngine(paperGraph(t), Options{Algorithm: AlgoIT, Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := eng.SaveSnapshot(dir); !errors.Is(err, ErrNotCSRPlus) {
		t.Fatalf("err = %v, want ErrNotCSRPlus", err)
	}
	if _, _, err := eng.SaveSnapshotTier(dir, "int8"); !errors.Is(err, ErrNotCSRPlus) {
		t.Fatalf("int8: err = %v, want ErrNotCSRPlus", err)
	}
}

func TestLoadEngineNodeCountMismatch(t *testing.T) {
	g := paperGraph(t)
	eng, err := NewEngine(g, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, path, err := eng.SaveSnapshot(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewGraph(3, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(other, path); err == nil {
		t.Fatal("node-count mismatch accepted")
	}
}

// An index can be served without the graph it was built from: the loaded
// engine answers like the one that built it and reports the n and m its
// file carries.
func TestLoadEngineWithoutGraph(t *testing.T) {
	g := paperGraph(t)
	eng, err := NewEngine(g, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	_, path, err := eng.SaveSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	recovered, _, err := RecoverEngine(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	want, err := eng.TopKMulti([]int{1, 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, back := range map[string]*Engine{"LoadEngine": loaded, "RecoverEngine": recovered} {
		if st := back.Stats(); st.N != g.N() || st.M != 11 || st.Rank != 3 {
			t.Fatalf("%s(nil, ...).Stats() = %+v, want n = %d, m = 11, rank 3", name, st, g.N())
		}
		got, err := back.TopKMulti([]int{1, 4}, 3)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s(nil, ...).TopKMulti = %v, %v; want %v", name, got, err, want)
		}
	}
}

func TestNewWeightedGraphEngine(t *testing.T) {
	// A weighted star: node 0's in-edges from 1 (weight 9) and 2 (weight 1).
	// Nodes 1 and 2 share node 0's... build something where weights change
	// the ranking: 3 and 4 both point at 0; 3 also heavily at 1.
	g, err := NewWeightedGraph(5, []WeightedEdge{
		{3, 0, 1}, {4, 0, 1},
		{3, 1, 10}, {4, 2, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(g, Options{Algorithm: AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	col, err := eng.QueryOne(0)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1's in-mass concentrates on 3, node 2's on 4; both share one
	// in-neighbour with node 0, so both are similar to 0, with finite
	// positive scores.
	if col[1] <= 0 || col[2] <= 0 {
		t.Fatalf("weighted similarities = %v", col)
	}
	if _, err := NewWeightedGraph(2, []WeightedEdge{{0, 5, 1}}); !errors.Is(err, ErrBadEdge) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewWeightedGraph(2, []WeightedEdge{{0, 1, -2}}); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestLoadWeightedGraph(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.txt")
	if err := os.WriteFile(path, []byte("0 2 3.0\n1 2 1.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadWeightedGraph(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	if g.OutDegree(0) != 1 {
		t.Fatalf("OutDegree = %d", g.OutDegree(0))
	}
	in := g.InDegrees()
	if in[2] != 2 {
		t.Fatalf("InDegrees = %v", in)
	}
	// Node 2's column distributes 0.75/0.25 across in-neighbours 0 and 1.
	eng, err := NewEngine(g, Options{Algorithm: AlgoExact})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryOne(2); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadWeightedGraph(filepath.Join(t.TempDir(), "nope"), 3); err == nil {
		t.Fatal("missing file loaded")
	}
}

// SaveSnapshotTier publishes f32 and int8 files that load and answer;
// an unknown tier is refused. The name predates SaveSnapshotTier.
func TestSaveIndexTierQuantizedRoundTrip(t *testing.T) {
	g := paperGraph(t)
	eng, err := NewEngine(g, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := eng.QueryOne(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tier := range []string{"f32", "int8"} {
		_, path, err := eng.SaveSnapshotTier(t.TempDir(), tier)
		if err != nil {
			t.Fatal(err)
		}
		back, err := LoadEngine(g, path)
		if err != nil {
			t.Fatal(err)
		}
		// The quantized engine reports a positive error bound even at
		// full rank, and its answers honour it against the exact engine.
		ix, _ := back.CoreIndex()
		bound := ix.TruncationBound(back.Stats().Rank)
		if bound <= 0 {
			t.Fatalf("%s: full-rank bound %g, want > 0", tier, bound)
		}
		got, err := back.QueryOne(1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exact {
			if d := math.Abs(got[i] - exact[i]); d > bound {
				t.Fatalf("%s: node %d deviates %g > bound %g", tier, i, d, bound)
			}
		}
		if err := back.Close(); err != nil {
			t.Fatal(err)
		}
		if err := back.Close(); err != nil {
			t.Fatal("double Close must be safe:", err)
		}
	}
	// Unknown tiers are rejected before touching the disk.
	dir := filepath.Join(t.TempDir(), "snaps")
	if _, _, err := eng.SaveSnapshotTier(dir, "fp7"); err == nil {
		t.Fatal("bogus tier accepted")
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused tier touched the disk: stat %s: %v", dir, err)
	}
	// Close on a precomputed (unmapped) engine and on baselines is a no-op.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	rls, err := NewEngine(g, Options{Algorithm: AlgoRLS})
	if err != nil {
		t.Fatal(err)
	}
	if err := rls.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveSnapshotTierPublishesQuantized(t *testing.T) {
	g := paperGraph(t)
	eng, err := NewEngine(g, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gen, _, err := eng.SaveSnapshotTier(dir, "int8")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("first snapshot generation = %d, want 1", gen)
	}
	back, snap, err := RecoverEngine(g, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if snap.Recovered {
		t.Fatal("clean publish reported as recovered")
	}
	if ix, _ := back.CoreIndex(); ix.TruncationBound(back.Stats().Rank) <= 0 {
		t.Fatal("recovered engine lost its quantization bound")
	}
}
