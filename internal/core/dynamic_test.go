package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/sparse"
)

// fullRankFixture builds a graph and a FULL-rank index over it. At full
// rank the factors reproduce CoSimRank to rounding — the regime where
// Dynamic's drift claims can be checked against ground truth.
func fullRankFixture(t *testing.T, n, m int, seed int64) (*graph.Graph, *Index) {
	t.Helper()
	g, err := graph.ErdosRenyi(n, int64(m), seed)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Precompute(g, Options{Rank: n})
	if err != nil {
		t.Fatal(err)
	}
	return g, ix
}

func maxAbsDiff(a, b *dense.Mat) float64 {
	var max float64
	for i, v := range a.Data {
		if d := math.Abs(v - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

// scoresFrom evaluates ix's every score, S = I + c·Z·Uᵀ.
func scoresFrom(ix *Index) *dense.Mat {
	return dense.MulT(ix.z.Mat(), ix.u.Mat()).Scale(ix.c).AddEye(1)
}

// TestDynamicDriftBoundHolds is the honesty check behind the tagged
// error_bound: with exact (full-rank) factors, the entrywise difference
// between the live graph's exact scores and the stale factors' scores
// must stay within the accumulated drift bound.
func TestDynamicDriftBoundHolds(t *testing.T) {
	g, ix := fullRankFixture(t, 32, 170, 19)
	d, err := NewDynamic(g, ix)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := d.ApplyEdge((i*3+2)%32, (i*17+5)%32, 1, true); err != nil {
			t.Fatal(err)
		}
	}
	if d.Drift() <= 0 || math.IsInf(d.Drift(), 0) || math.IsNaN(d.Drift()) {
		t.Fatalf("drift bound %g after inserts", d.Drift())
	}
	live, err := d.MaterializeGraph()
	if err != nil {
		t.Fatal(err)
	}
	ixLive, err := Precompute(live, Options{Rank: 32})
	if err != nil {
		t.Fatal(err)
	}
	stale := scoresFrom(ix)
	exact := scoresFrom(ixLive)
	// Both score evaluations carry the squaring series' own ~eps error;
	// leave it a little slack on top of the drift bound.
	if diff := maxAbsDiff(stale, exact); diff > d.Drift()+1e-4 {
		t.Fatalf("stale factors off the live exact scores by %g, drift bound promises %g", diff, d.Drift())
	}
	// The bound must also be additive: re-applying the same stream
	// yields the same total.
	d2, err := NewDynamic(g, ix)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < 10; i++ {
		_, dd, err := d2.ApplyEdge((i*3+2)%32, (i*17+5)%32, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		sum += dd
	}
	if math.Abs(sum-d.Drift()) > 1e-12 {
		t.Fatalf("per-edge contributions sum to %g, total drift %g", sum, d.Drift())
	}
}

func TestDynamicUnweightedDuplicateIsNoOp(t *testing.T) {
	g, ix := fullRankFixture(t, 20, 90, 5)
	d, err := NewDynamic(g, ix)
	if err != nil {
		t.Fatal(err)
	}
	// Find an existing edge.
	adj := g.Adj()
	src, dst := -1, -1
	for u := 0; u < 20 && src < 0; u++ {
		if adj.RowPtr[u] < adj.RowPtr[u+1] {
			src, dst = u, int(adj.ColIdx[adj.RowPtr[u]])
		}
	}
	applied, dd, err := d.ApplyEdge(src, dst, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if applied || dd != 0 || d.Drift() != 0 || d.M() != g.M() {
		t.Fatalf("duplicate unweighted edge was not a no-op: applied=%v drift=%g m=%d", applied, dd, d.M())
	}
	live, err := d.MaterializeGraph()
	if err != nil {
		t.Fatal(err)
	}
	la, ga := live.Adj(), g.Adj()
	if len(la.ColIdx) != len(ga.ColIdx) {
		t.Fatalf("materialized graph has %d entries, want %d", len(la.ColIdx), len(ga.ColIdx))
	}
	for i := range ga.ColIdx {
		if la.ColIdx[i] != ga.ColIdx[i] || la.Val[i] != ga.Val[i] {
			t.Fatalf("materialized adjacency differs at entry %d", i)
		}
	}
}

// TestDynamicMaterializeOrderIndependent: two different application
// orders of the same edge set materialize bitwise-identical graphs —
// the property the recovery-ordering guarantee rests on.
func TestDynamicMaterializeOrderIndependent(t *testing.T) {
	g, ix := fullRankFixture(t, 22, 100, 13)
	edges := [][2]int{{1, 9}, {20, 2}, {7, 7}, {3, 15}, {18, 0}, {5, 21}}
	d1, err := NewDynamic(g, ix)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDynamic(g, ix)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if _, _, err := d1.ApplyEdge(e[0], e[1], 1, true); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(edges) - 1; i >= 0; i-- {
		if _, _, err := d2.ApplyEdge(edges[i][0], edges[i][1], 1, true); err != nil {
			t.Fatal(err)
		}
	}
	g1, err := d1.MaterializeGraph()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := d2.MaterializeGraph()
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := g1.Adj(), g2.Adj()
	if len(a1.ColIdx) != len(a2.ColIdx) {
		t.Fatalf("entry counts differ: %d vs %d", len(a1.ColIdx), len(a2.ColIdx))
	}
	for i := range a1.ColIdx {
		if a1.ColIdx[i] != a2.ColIdx[i] || math.Float64bits(a1.Val[i]) != math.Float64bits(a2.Val[i]) {
			t.Fatalf("adjacencies differ at entry %d", i)
		}
	}
	for i := range a1.RowPtr {
		if a1.RowPtr[i] != a2.RowPtr[i] {
			t.Fatalf("row pointers differ at %d", i)
		}
	}
}

func TestDynamicWeightedAccumulatesAndValidates(t *testing.T) {
	coo := sparse.NewCOO(6, 6)
	for _, e := range [][3]float64{{0, 1, 2}, {2, 1, 1}, {3, 4, 5}, {1, 0, 1}} {
		if err := coo.Add(int(e[0]), int(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := graph.NewWeighted(coo)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Precompute(g, Options{Rank: 6})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, ix)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate weighted edge accumulates (2 + 3 = 5 of a total 6).
	applied, dd, err := d.ApplyEdge(0, 1, 3, true)
	if err != nil || !applied || dd <= 0 {
		t.Fatalf("weighted duplicate: applied=%v drift=%g err=%v", applied, dd, err)
	}
	live, err := d.MaterializeGraph()
	if err != nil {
		t.Fatal(err)
	}
	if got := live.Adj().At(0, 1); got != 5 {
		t.Fatalf("accumulated weight %g, want 5", got)
	}
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, _, err := d.ApplyEdge(2, 3, w, true); !errors.Is(err, ErrParams) {
			t.Fatalf("weight %v accepted: %v", w, err)
		}
	}
	if _, _, err := d.ApplyEdge(-1, 2, 1, true); !errors.Is(err, ErrQuery) {
		t.Fatalf("negative src accepted: %v", err)
	}
	if _, _, err := d.ApplyEdge(0, 6, 1, true); !errors.Is(err, ErrQuery) {
		t.Fatalf("out-of-range dst accepted: %v", err)
	}
}

func TestDynamicStructureOnlyReplayChargesNoDrift(t *testing.T) {
	g, ix := fullRankFixture(t, 20, 80, 23)
	d, err := NewDynamic(g, ix)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ApplyEdge(2, 17, 1, false); err != nil {
		t.Fatal(err)
	}
	if d.Drift() != 0 || d.Edges() != 0 {
		t.Fatalf("structure-only apply charged drift %g / %d edges", d.Drift(), d.Edges())
	}
	if _, _, err := d.ApplyEdge(3, 18, 1, true); err != nil {
		t.Fatal(err)
	}
	if d.Drift() <= 0 || d.Edges() != 1 {
		t.Fatalf("drift-counted apply recorded drift %g / %d edges", d.Drift(), d.Edges())
	}
}

// appendBuiltDynamic is NewDynamic's construction as it stood until PR 20 —
// every in-neighbour list grown by one single-element append per edge — kept
// as the reference the carved lists are held to.
func appendBuiltDynamic(g *graph.Graph, ix *Index) *Dynamic {
	d := &Dynamic{
		n: ix.n, c: ix.c, weighted: g.Weighted(),
		in: make([][]dynEdge, ix.n), totw: make([]float64, ix.n),
	}
	adj := g.Adj()
	for u := 0; u < d.n; u++ {
		for p := adj.RowPtr[u]; p < adj.RowPtr[u+1]; p++ {
			v, w := int(adj.ColIdx[p]), adj.Val[p]
			d.in[v] = append(d.in[v], dynEdge{src: int32(u), w: w})
			d.totw[v] += w
			d.m++
		}
	}
	return d
}

// NewDynamic carves every in-neighbour list out of one array. On a skewed
// graph the lists, the column normalisers, the edge count and the
// materialised graph are, bit for bit, what per-edge appends built; and
// each list ends where the next begins, so none may have room to grow into.
func TestDynamicCarvedListsMatchAppendBuilt(t *testing.T) {
	g, err := graph.RMAT(10, 6000, graph.DefaultRMAT, 31)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Precompute(g, Options{Rank: 8})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDynamic(g, ix)
	if err != nil {
		t.Fatal(err)
	}
	want := appendBuiltDynamic(g, ix)
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for v := range want.in {
		if !slices.Equal(d.in[v], want.in[v]) {
			t.Fatalf("in[%d] = %v, want %v", v, d.in[v], want.in[v])
		}
		if cap(d.in[v]) != len(d.in[v]) {
			t.Fatalf("in[%d] has len %d but cap %d: an append would write into in[%d]", v, len(d.in[v]), cap(d.in[v]), v+1)
		}
	}
	if d.m != want.m || d.m != g.M() || !slices.EqualFunc(d.totw, want.totw, sameBits) {
		t.Fatalf("m = %d, want %d; totw equal = %v", d.m, want.m, slices.EqualFunc(d.totw, want.totw, sameBits))
	}
	live, err := d.MaterializeGraph()
	if err != nil {
		t.Fatal(err)
	}
	got, adj := live.Adj(), g.Adj()
	if !slices.Equal(got.RowPtr, adj.RowPtr) || !slices.Equal(got.ColIdx, adj.ColIdx) || !slices.EqualFunc(got.Val, adj.Val, sameBits) {
		t.Fatal("materialised graph is not the graph the state was built from")
	}
}

// An edge into v grows in[v] only: its neighbours in the shared backing
// array keep every entry.
func TestDynamicApplyEdgeLeavesNeighbouringListsAlone(t *testing.T) {
	g, ix := fullRankFixture(t, 20, 120, 29)
	d, err := NewDynamic(g, ix)
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v < d.n-1; v++ {
		src := 0
		for src == v || g.HasEdge(src, v) {
			src++
		}
		before, after := slices.Clone(d.in[v-1]), slices.Clone(d.in[v+1])
		grown := append(slices.Clone(d.in[v]), dynEdge{src: int32(src), w: 1})
		if applied, _, err := d.ApplyEdge(src, v, 1, true); err != nil || !applied {
			t.Fatalf("ApplyEdge(%d, %d): applied=%v err=%v", src, v, applied, err)
		}
		if !slices.Equal(d.in[v], grown) || !slices.Equal(d.in[v-1], before) || !slices.Equal(d.in[v+1], after) {
			t.Fatalf("edge %d -> %d: in[%d] = %v (want %v), in[%d] = %v (was %v), in[%d] = %v (was %v)",
				src, v, v, d.in[v], grown, v-1, d.in[v-1], before, v+1, d.in[v+1], after)
		}
	}
}
