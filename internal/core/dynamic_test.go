package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
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

// scoresFrom evaluates ix's every score, S = I + c·F·Fᵀ.
func scoresFrom(ix *Index) *dense.Mat {
	f := ix.denseF64()
	return dense.MulT(f, f).Scale(ix.c).AddEye(1)
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

// refDynamic is Dynamic as it stood before the unweighted layout: a weight
// beside every source, a running total per node, lists grown by one append
// per edge. Kept as the oracle Test_Dynamic holds the live state to.
type refDynamic struct {
	n        int
	c        float64
	weighted bool
	in       [][]refEdge
	totw     []float64
	m        int64
	drift    float64
}

type refEdge struct {
	src int32
	w   float64
}

func newRefDynamic(g *graph.Graph, c float64) *refDynamic {
	d := &refDynamic{n: g.N(), c: c, weighted: g.Weighted(), in: make([][]refEdge, g.N()), totw: make([]float64, g.N())}
	adj := g.Adj()
	for u := 0; u < d.n; u++ {
		for p := adj.RowPtr[u]; p < adj.RowPtr[u+1]; p++ {
			v, w := int(adj.ColIdx[p]), adj.Val[p]
			d.in[v] = append(d.in[v], refEdge{src: int32(u), w: w})
			d.totw[v] += w
			d.m++
		}
	}
	return d
}

func (d *refDynamic) applyEdge(src, dst int, weight float64) (applied bool, driftDelta float64) {
	if !d.weighted {
		weight = 1
	}
	list := d.in[dst]
	pos := -1
	for i := range list {
		if int(list[i].src) == src {
			pos = i
			break
		}
	}
	if pos >= 0 && !d.weighted {
		return false, 0
	}
	oldT := d.totw[dst]
	newT := oldT + weight
	var delta float64
	if oldT == 0 {
		delta = 1
	} else {
		for i := range list {
			wOld := list[i].w
			wNew := wOld
			if int(list[i].src) == src {
				wNew += weight
			}
			delta += math.Abs(wNew/newT - wOld/oldT)
		}
		if pos < 0 {
			delta += weight / newT
		}
	}
	if pos >= 0 {
		d.in[dst][pos].w += weight
	} else {
		d.in[dst] = append(d.in[dst], refEdge{src: int32(src), w: weight})
		d.m++
	}
	d.totw[dst] = newT
	driftDelta = DriftContribution(d.c, delta)
	d.drift += driftDelta
	return true, driftDelta
}

func (d *refDynamic) materialize(t testing.TB) *graph.Graph {
	t.Helper()
	coo := sparse.NewCOO(d.n, d.n)
	for v := 0; v < d.n; v++ {
		for _, e := range d.in[v] {
			if err := coo.Add(int(e.src), v, e.w); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !d.weighted {
		return graph.New(coo)
	}
	g, err := graph.NewWeighted(coo)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shapeOnly is an index NewDynamic can be built over: it reads n and c.
func shapeOnly(n int, c float64) *Index {
	return &Index{IndexShard: IndexShard{n: n, hi: n, c: c}}
}

func sameCSR(a, b *sparse.CSR) bool {
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx) && slices.EqualFunc(a.Val, b.Val, sameBits)
}

// Test_Dynamic holds the live state to refDynamic over skewed streams that
// repeat edges and give nodes their first in-edge: the same applied verdict
// and drift term for every edge, Drift() equal by bits after each, the same
// edge count and, materialised, the same CSR — so an edge into v leaves
// every other list as it was.
func Test_Dynamic(t *testing.T) {
	base, err := graph.RMAT(10, 6000, graph.DefaultRMAT, 31)
	if err != nil {
		t.Fatal(err)
	}
	weightedBase := func() *graph.Graph {
		adj := base.Adj()
		coo := sparse.NewCOO(base.N(), base.N())
		for u := 0; u < base.N(); u++ {
			for p := adj.RowPtr[u]; p < adj.RowPtr[u+1]; p++ {
				if err := coo.Add(u, int(adj.ColIdx[p]), 0.25+float64((u*7+int(adj.ColIdx[p]))%13)/3); err != nil {
					t.Fatal(err)
				}
			}
		}
		g, err := graph.NewWeighted(coo)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"unweighted", base},
		{"weighted", weightedBase()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			d, err := NewDynamic(g, shapeOnly(g.N(), 0.6))
			if err != nil {
				t.Fatal(err)
			}
			want := newRefDynamic(g, 0.6)
			if d.M() != want.m || d.M() != g.M() {
				t.Fatalf("M() = %d, want %d", d.M(), want.m)
			}
			if built, err := d.MaterializeGraph(); err != nil || !sameCSR(built.Adj(), g.Adj()) {
				t.Fatalf("materialised graph is not the graph the state was built from (err = %v)", err)
			}

			// In-degree-0 nodes get their first in-edge; every third edge is
			// one the graph already has (or the stream already sent); every
			// fifth goes to one of four hot targets, whose chains of streamed
			// edges grow long enough for their order to reach δ's rounding.
			var empty []int
			for v, deg := range g.InDegrees() {
				if deg == 0 {
					empty = append(empty, v)
				}
			}
			if len(empty) < 10 {
				t.Fatalf("fixture has %d nodes without an in-link, want a skewed graph", len(empty))
			}
			rng := rand.New(rand.NewSource(23))
			adj := g.Adj()
			var sent [][2]int
			for i := 0; i < 600; i++ {
				var e [2]int
				switch {
				case i%5 == 4:
					e = [2]int{rng.Intn(g.N()), empty[i%4]}
				case i%3 == 0 && len(sent) > 0 && i%2 == 0:
					e = sent[rng.Intn(len(sent))]
				case i%3 == 0:
					u := rng.Intn(g.N())
					for adj.RowPtr[u] == adj.RowPtr[u+1] {
						u = rng.Intn(g.N())
					}
					e = [2]int{u, int(adj.ColIdx[adj.RowPtr[u]])}
				case i%3 == 1:
					e = [2]int{rng.Intn(g.N()), empty[rng.Intn(len(empty))]}
				default:
					e = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
				}
				sent = append(sent, e)
				weight := 0.5 + 4*rng.Float64()
				applied, dd, err := d.ApplyEdge(e[0], e[1], weight, true)
				if err != nil {
					t.Fatal(err)
				}
				wantApplied, wantDD := want.applyEdge(e[0], e[1], weight)
				if applied != wantApplied || math.Float64bits(dd) != math.Float64bits(wantDD) ||
					math.Float64bits(d.Drift()) != math.Float64bits(want.drift) || d.M() != want.m {
					t.Fatalf("edge %d %v: applied=%v drift term %v total %v m=%d, want %v %v %v %d",
						i, e, applied, dd, d.Drift(), d.M(), wantApplied, wantDD, want.drift, want.m)
				}
			}
			live, err := d.MaterializeGraph()
			if err != nil {
				t.Fatal(err)
			}
			if !sameCSR(live.Adj(), want.materialize(t).Adj()) {
				t.Fatal("materialised live graph differs from the reference's")
			}
			if live.M() != d.M() {
				t.Fatalf("materialised graph has m = %d, state says %d", live.M(), d.M())
			}
		})
	}
}

// wtDynamicFixture is the WT stand-in and the uniform stream ingest-mixed
// sends it: 35 000 edges, about what 1600 edges a second for the
// workload's run amount to.
func wtDynamicFixture(tb testing.TB) (*graph.Graph, [][2]int) {
	tb.Helper()
	ds, err := graph.DatasetByKey("WT")
	if err != nil {
		tb.Fatal(err)
	}
	g, err := ds.GenerateScaled(ds.Scale)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	stream := make([][2]int, 35000)
	for i := range stream {
		stream[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
	}
	return g, stream
}

// TestDynamicBytes holds the unweighted state to the graph's own size on
// the WT stand-in: 4 B an edge, 8 B a node and 8 B a streamed edge, at boot
// and after the stream. The heap it holds and what Bytes reports both stay
// inside 4·m + 8·n + 8·streamed + 64 KB, m the live edge count.
func TestDynamicBytes(t *testing.T) {
	g, stream := wtDynamicFixture(t)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	d, err := NewDynamic(g, shapeOnly(g.N(), 0.6))
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, streamed int64) {
		t.Helper()
		held := heap() - before
		n, m := int64(d.N()), d.M()
		limit := 4*m + 8*n + 8*streamed + (64 << 10)
		t.Logf("%s: n=%d m=%d streamed=%d: heap %d B, Bytes() %d B, limit %d B", when, n, m, streamed, held, d.Bytes(), limit)
		if held > limit || d.Bytes() > limit {
			t.Fatalf("%s: the live graph over n=%d m=%d holds %d bytes (Bytes() = %d), want at most 4m + 8n + 8·%d + 64 KB = %d",
				when, n, m, held, d.Bytes(), streamed, limit)
		}
	}
	check("boot", 0)
	var streamed int64
	for _, e := range stream {
		applied, _, err := d.ApplyEdge(e[0], e[1], 1, true)
		if err != nil {
			t.Fatal(err)
		}
		if applied {
			streamed++
		}
	}
	check("streamed", streamed)
	runtime.KeepAlive(d)
	runtime.KeepAlive(g)
	runtime.KeepAlive(stream)
}

// TestDynamicEdgeLimit lowers the int32 limit: a boot graph past it is
// refused, and a new edge that would grow the log past it is ErrParams and
// changes nothing, while a duplicate still answers as one.
func TestDynamicEdgeLimit(t *testing.T) {
	g, err := graph.ErdosRenyi(20, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer func(old int64) { maxDynamicEdges = old }(maxDynamicEdges)
	maxDynamicEdges = g.M() - 1
	if _, err := NewDynamic(g, shapeOnly(g.N(), 0.6)); !errors.Is(err, ErrParams) {
		t.Fatalf("NewDynamic over m=%d with a limit of %d: err = %v, want ErrParams", g.M(), maxDynamicEdges, err)
	}
	maxDynamicEdges = g.M()
	d, err := NewDynamic(g, shapeOnly(g.N(), 0.6))
	if err != nil {
		t.Fatal(err)
	}
	var fresh [][2]int
	for u := 0; u < g.N() && len(fresh) < 3; u++ {
		if v := (u + 1) % g.N(); !g.HasEdge(u, v) {
			fresh = append(fresh, [2]int{u, v})
		}
	}
	maxDynamicEdges = 2
	for _, e := range fresh[:2] {
		if applied, _, err := d.ApplyEdge(e[0], e[1], 1, true); err != nil || !applied {
			t.Fatalf("edge %v under the limit: applied=%v err=%v", e, applied, err)
		}
	}
	m, drift, edges := d.M(), d.Drift(), d.Edges()
	before, err := d.MaterializeGraph()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ApplyEdge(fresh[2][0], fresh[2][1], 1, true); !errors.Is(err, ErrParams) {
		t.Fatalf("edge past the limit: err = %v, want ErrParams", err)
	}
	if applied, _, err := d.ApplyEdge(fresh[0][0], fresh[0][1], 1, true); err != nil || applied {
		t.Fatalf("duplicate at the limit: applied=%v err=%v, want a no-op", applied, err)
	}
	after, err := d.MaterializeGraph()
	if err != nil {
		t.Fatal(err)
	}
	if d.M() != m || d.Drift() != drift || d.Edges() != edges || !sameCSR(after.Adj(), before.Adj()) {
		t.Fatal("a refused edge changed the live graph")
	}
}

// FuzzDynamic decodes a small base graph and an edge stream from data and
// holds Dynamic to refDynamic edge by edge: the applied verdict, the drift
// term and Drift() by bits, M(), and at the end the materialised CSR. Ids
// reach one past either end of [0, n) and, on a weighted graph, every
// eighth weight is one ApplyEdge must refuse; both leave the state alone.
func FuzzDynamic(f *testing.F) {
	f.Fuzz(func(t *testing.T, weighted bool, data []byte) {
		if len(data) < 2 {
			return
		}
		n, baseEdges := 1+int(data[0]%24), int(data[1])
		data = data[2:]
		weight := func(b byte) float64 { return 0.25 + float64(b%16)/4 }
		coo := sparse.NewCOO(n, n)
		for ; baseEdges > 0 && len(data) >= 3; baseEdges, data = baseEdges-1, data[3:] {
			if err := coo.Add(int(data[0])%n, int(data[1])%n, weight(data[2])); err != nil {
				t.Fatal(err)
			}
		}
		g := graph.New(coo)
		if weighted {
			var err error
			if g, err = graph.NewWeighted(coo); err != nil {
				t.Fatal(err)
			}
		}
		d, err := NewDynamic(g, shapeOnly(n, 0.6))
		if err != nil {
			t.Fatal(err)
		}
		want := newRefDynamic(g, 0.6)
		for ; len(data) >= 3; data = data[3:] {
			src, dst := int(data[0])%(n+2)-1, int(data[1])%(n+2)-1
			w := weight(data[2])
			if data[2]%8 == 7 {
				w = []float64{0, -1, math.NaN(), math.Inf(1)}[data[2]/8%4]
			}
			applied, dd, err := d.ApplyEdge(src, dst, w, true)
			switch {
			case src < 0 || src >= n || dst < 0 || dst >= n:
				if !errors.Is(err, ErrQuery) || applied {
					t.Fatalf("edge (%d, %d) on n=%d: applied=%v err=%v, want ErrQuery", src, dst, n, applied, err)
				}
				continue
			case weighted && !(w > 0 && !math.IsInf(w, 0)):
				if !errors.Is(err, ErrParams) || applied {
					t.Fatalf("weight %v: applied=%v err=%v, want ErrParams", w, applied, err)
				}
				continue
			case err != nil:
				t.Fatal(err)
			}
			wantApplied, wantDD := want.applyEdge(src, dst, w)
			if applied != wantApplied || math.Float64bits(dd) != math.Float64bits(wantDD) ||
				math.Float64bits(d.Drift()) != math.Float64bits(want.drift) || d.M() != want.m {
				t.Fatalf("edge (%d, %d, %v): applied=%v drift term %v total %v m=%d, want %v %v %v %d",
					src, dst, w, applied, dd, d.Drift(), d.M(), wantApplied, wantDD, want.drift, want.m)
			}
		}
		live, err := d.MaterializeGraph()
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSR(live.Adj(), want.materialize(t).Adj()) || live.Weighted() != weighted {
			t.Fatal("materialised live graph differs from the reference's")
		}
	})
}

// Benchmark_NewDynamic prices the boot: the WT stand-in carved into its CSC.
func Benchmark_NewDynamic(b *testing.B) {
	g, _ := wtDynamicFixture(b)
	ix := shapeOnly(g.N(), 0.6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDynamic(g, ix); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmark_DynamicCut prices a rebuild's cut on the WT stand-in after the
// 35 000-edge stream: the counting pass, and the COO build and sort the cut
// used to be (refDynamic's materialise), which must give the same CSR.
func Benchmark_DynamicCut(b *testing.B) {
	g, stream := wtDynamicFixture(b)
	d, err := NewDynamic(g, shapeOnly(g.N(), 0.6))
	if err != nil {
		b.Fatal(err)
	}
	ref := newRefDynamic(g, 0.6)
	for _, e := range stream {
		if _, _, err := d.ApplyEdge(e[0], e[1], 1, true); err != nil {
			b.Fatal(err)
		}
		ref.applyEdge(e[0], e[1], 1)
	}
	live, err := d.MaterializeGraph()
	if err != nil {
		b.Fatal(err)
	}
	if !sameCSR(live.Adj(), ref.materialize(b).Adj()) {
		b.Fatal("the counting cut and the COO cut differ")
	}
	b.Run("counting", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := d.MaterializeGraph(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("coo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ref.materialize(b)
		}
	})
}
