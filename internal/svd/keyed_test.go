package svd

import (
	"math"
	"testing"
	"time"

	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/sparse"
)

// sketchRows draws the sketch the randomized driver draws for the n x n
// transition matrix of g — restricted to its support, or as given — k
// wide, and returns it by node: the row each node's column gets.
func sketchRows(tb testing.TB, g *graph.Graph, k int, seed int64, restricted bool) map[int32][]float64 {
	tb.Helper()
	q, err := g.Transition()
	if err != nil {
		tb.Fatal(err)
	}
	n := g.N()
	p := &problem{a: q, rows: n, cols: n}
	if restricted {
		s, rowIdx, colIdx := q.Support()
		if p = restrict(s, n, n, rowIdx, colIdx, k); p.colIdx == nil {
			tb.Fatal("fixture has no empty column to leave out")
		}
	}
	_, cols := p.a.Dims()
	omega := keyed(dense.NewMat(cols, k), seed, p.colIdx)
	rows := make(map[int32][]float64, cols)
	for i := 0; i < cols; i++ {
		id := int32(i)
		if p.colIdx != nil {
			id = p.colIdx[i]
		}
		rows[id] = omega.Row(i)
	}
	return rows
}

// sameRows fails unless every node of want that got also draws has the
// same row in both, bit for bit, and got draws at least min of them.
func sameRows(t *testing.T, what string, got, want map[int32][]float64, min int) {
	t.Helper()
	common := 0
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			continue
		}
		common++
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("%s: node %d's sketch row differs at column %d: %v, want %v", what, id, j, g[j], w[j])
			}
		}
	}
	if common < min {
		t.Fatalf("%s: %d nodes in common, want at least %d", what, common, min)
	}
}

// TestKeyedSketchRowIsTheNodes holds the keyed sketch to its promise: a
// node's row of Ω is a function of (seed, node) alone. It is the same bit
// for bit whether the problem is restricted to Q's support or taken as
// given, after an in-edge lands on another node (which moves every later
// column of the support up one place), and when n is padded with isolated
// nodes.
func TestKeyedSketchRowIsTheNodes(t *testing.T) {
	const k, seed = 24, 11
	g, err := graph.RMAT(10, 3000, graph.DefaultRMAT, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := sketchRows(t, g, k, seed, true)
	asGiven := sketchRows(t, g, k, seed, false)
	sameRows(t, "restricted vs as given", base, asGiven, len(base))

	in := make([]bool, g.N())
	for _, j := range g.Adj().ColIdx {
		in[j] = true
	}
	target := -1
	for j := g.N() / 2; j < g.N(); j++ {
		if !in[j] {
			target = j
			break
		}
	}
	if target < 0 {
		t.Fatal("fixture has no node without an in-link past n/2")
	}
	build := func(n int, extra [][2]int) *graph.Graph {
		coo := sparse.NewCOO(n, n)
		adj := g.Adj()
		for i := 0; i < g.N(); i++ {
			for p := adj.RowPtr[i]; p < adj.RowPtr[i+1]; p++ {
				if err := coo.Add(i, int(adj.ColIdx[p]), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, e := range extra {
			if err := coo.Add(e[0], e[1], 1); err != nil {
				t.Fatal(err)
			}
		}
		return graph.New(coo)
	}
	grown := sketchRows(t, build(g.N(), [][2]int{{3, target}}), k, seed, true)
	if len(grown) != len(base)+1 {
		t.Fatalf("an in-edge on node %d gave a support of %d columns, want %d", target, len(grown), len(base)+1)
	}
	sameRows(t, "an in-edge elsewhere", grown, base, len(base))

	padded := build(g.N()+37, nil)
	sameRows(t, "n padded with isolated nodes", sketchRows(t, padded, k, seed, true), base, len(base))
	sameRows(t, "n padded, as given", sketchRows(t, padded, k, seed, false), asGiven, g.N())
}

// TestKeyedSketchGolden pins the first values of two keyed streams, so a
// change to the generator under the sketch — math/rand/v2's PCG or its
// NormFloat64 — fails here by name before it moves every factor. The CI's
// GOARCH=386 job runs it too: a 32-bit build draws the same sketch.
func TestKeyedSketchGolden(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		node int32
		want [4]uint64
	}{
		{0, 0, [4]uint64{0x3fe221104171427c, 0xbfe398c2363d3eb2, 0x3fe2e06ae02832f5, 0xbfd78a6ea7f586ec}},
		{20240914, 131071, [4]uint64{0x3fee8dbb28dc6a6f, 0xbfec39e0739a7519, 0x3ff5bb60a7f4aaeb, 0x3ff3780fe14018ac}},
	} {
		row := keyed(dense.NewMat(1, 4), tc.seed, []int32{tc.node}).Row(0)
		for j, v := range row {
			if math.Float64bits(v) != tc.want[j] {
				t.Errorf("seed %d node %d: value %d = %v (%#016x), want %v (%#016x)", tc.seed, tc.node, j, v, math.Float64bits(v), math.Float64frombits(tc.want[j]), tc.want[j])
			}
		}
	}
}

// TestStagesDrawIsOnlyTheDraw holds Stages.Draw to the sketch alone: the
// randomized driver builds Aᵀ on a second goroutine meanwhile, and the
// wait for it — on one core, the whole transpose — is charged to Sparse.
// The fixture has many entries over few columns, so its transpose takes
// far longer than its 48 x 12 draw.
func TestStagesDrawIsOnlyTheDraw(t *testing.T) {
	const rows, cols, perRow = 150000, 48, 4
	rowPtr := make([]int64, rows+1)
	colIdx := make([]int32, 0, rows*perRow)
	val := make([]float64, 0, rows*perRow)
	for i := 0; i < rows; i++ {
		for e := 0; e < perRow; e++ {
			colIdx = append(colIdx, int32((i%(cols/perRow))*perRow+e))
			val = append(val, float64(1+(i+e)%7))
		}
		rowPtr[i+1] = int64(len(colIdx))
	}
	a, err := sparse.NewCSR(rows, cols, rowPtr, colIdx, val)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	a.Transpose()
	transpose := time.Since(start)
	res, err := Truncated(a, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stages; st.Draw > transpose/4 {
		t.Fatalf("draw=%v against a %v transpose (sparse=%v): the draw's clock ran while waiting for Aᵀ", st.Draw, transpose, st.Sparse)
	}
}
