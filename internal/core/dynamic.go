// Dynamic is the live-graph state behind streaming edge ingestion
// (internal/ingest): it tracks the live graph's in-neighbour structure and
// accumulates a provable entrywise drift bound for serving stale factors
// against the updated graph. It keeps no factor state: the served index is
// replaced by a rebuild over the materialised graph, never updated in place.
//
// Drift bound. Inserting (or up-weighting) an edge u -> v changes only
// column v of the transition matrix Q; let δ = ‖q'_v − q_v‖₁ be the
// exact 1-norm of that change (computable in O(indeg(v))). CoSimRank is
// S = Σ_k c^k (Q^k)ᵀ(Q^k), every column of Q^k has 1-norm ≤ 1, and
// ‖Q'^k − Q^k‖₁ ≤ k·δ by telescoping submultiplicativity, so
//
//	|S' − S|_max ≤ Σ_k c^k · 2kδ = 2δ·c/(1−c)²  ≤  c·(2δ+δ²)/(1−c)².
//
// Dynamic charges the (slightly looser, perturbation-symmetric) final
// form per applied edge. Successive edges telescope through the
// intermediate graphs, so the per-edge contributions compose
// *additively* — the same composition rule the truncation and
// quantization bounds already follow — and the running total honestly
// bounds |S_live − S_factors|_max for factors built at any earlier
// point in the stream.
package core

import (
	"fmt"
	"math"

	"csrplus/internal/graph"
	"csrplus/internal/sparse"
)

// DriftContribution is the entrywise CoSimRank drift bound charged for
// one edge application whose transition-column 1-norm change is delta.
func DriftContribution(c, delta float64) float64 {
	return c * (2*delta + delta*delta) / ((1 - c) * (1 - c))
}

// Dynamic maintains the live in-neighbour lists and the cumulative drift
// bound. It is not safe for concurrent use; the ingest service serializes
// access.
//
// It holds what the live graph needs and nothing more: 4 B an edge plus a
// slice header a node on an unweighted graph, where every weight is 1 and
// Q's column normaliser is the list's length; the weights and their sums
// exist only on a weighted one.
type Dynamic struct {
	n        int
	c        float64
	weighted bool

	src  [][]int32   // src[v] = in-neighbours of v, each once, in arrival order
	w    [][]float64 // w[v][i] = weight of src[v][i] -> v; nil unless weighted
	totw []float64   // totw[v] = Σ w[v], Q's column normaliser; nil unless weighted
	m    int64       // live edge count (distinct (u,v) pairs)

	drift float64 // cumulative drift bound over drift-counted edges
	edges int64   // drift-counted edge applications
}

// NewDynamic builds the dynamic state for g served by ix's factors, which
// must match g's node count. Only ix's n and damping are read and nothing
// of it or of g is retained, so any tier serves and the caller may close ix
// and drop g.
func NewDynamic(g *graph.Graph, ix *Index) (*Dynamic, error) {
	if g.N() != ix.n {
		return nil, fmt.Errorf("core: dynamic state over n=%d graph for n=%d index: %w", g.N(), ix.n, ErrParams)
	}
	d := &Dynamic{n: ix.n, c: ix.c, weighted: g.Weighted(), src: make([][]int32, ix.n)}
	adj := g.Adj()
	// Every list is carved out of one backing array, in-degree long and
	// with no capacity to spare: the fill below appends in place, and
	// ApplyEdge's first append to a list copies it out instead of writing
	// over the head of its neighbour's.
	start := make([]int, d.n+1)
	for _, v := range adj.ColIdx {
		start[v+1]++
	}
	for v := 0; v < d.n; v++ {
		start[v+1] += start[v]
	}
	srcs := make([]int32, len(adj.ColIdx))
	for v := range d.src {
		d.src[v] = srcs[start[v]:start[v]:start[v+1]]
	}
	if d.weighted {
		d.w, d.totw = make([][]float64, d.n), make([]float64, d.n)
		ws := make([]float64, len(adj.ColIdx))
		for v := range d.w {
			d.w[v] = ws[start[v]:start[v]:start[v+1]]
		}
	}
	for u := 0; u < d.n; u++ {
		for p := adj.RowPtr[u]; p < adj.RowPtr[u+1]; p++ {
			v := int(adj.ColIdx[p])
			d.src[v] = append(d.src[v], int32(u))
			if d.weighted {
				d.w[v] = append(d.w[v], adj.Val[p])
				d.totw[v] += adj.Val[p]
			}
			d.m++
		}
	}
	return d, nil
}

// N returns the node count.
func (d *Dynamic) N() int { return d.n }

// M returns the live edge count.
func (d *Dynamic) M() int64 { return d.m }

// Weighted reports whether the maintained graph carries edge weights.
func (d *Dynamic) Weighted() bool { return d.weighted }

// Drift returns the cumulative entrywise drift bound accumulated by
// drift-counted ApplyEdge calls. It is monotone non-decreasing.
func (d *Dynamic) Drift() float64 { return d.drift }

// Edges returns how many drift-counted edges have been applied.
func (d *Dynamic) Edges() int64 { return d.edges }

// ApplyEdge inserts edge src -> dst with the given weight (weight 1 on
// an unweighted graph; on a weighted graph duplicate edges accumulate
// weight, mirroring NewWeighted's duplicate-sum semantics). It updates
// the in-neighbour structure and — when countDrift is true — charges the
// edge's drift contribution. On an
// unweighted graph a duplicate edge is a no-op (parallel edges collapse,
// mirroring graph.New), applied=false, zero drift.
//
// countDrift=false is the boot-replay case: records at or below the
// snapshot's WAL sequence are already inside the factors, so they
// rebuild structure without charging drift.
func (d *Dynamic) ApplyEdge(src, dst int, weight float64, countDrift bool) (applied bool, driftDelta float64, err error) {
	if src < 0 || src >= d.n || dst < 0 || dst >= d.n {
		return false, 0, fmt.Errorf("core: edge (%d, %d) outside [0, %d): %w", src, dst, d.n, ErrQuery)
	}
	if !d.weighted {
		weight = 1
	} else if weight <= 0 || math.IsInf(weight, 0) || math.IsNaN(weight) {
		return false, 0, fmt.Errorf("core: edge (%d, %d) weight %v must be positive and finite: %w", src, dst, weight, ErrParams)
	}

	list := d.src[dst]
	pos := -1
	for i := range list {
		if int(list[i]) == src {
			pos = i
			break
		}
	}
	if pos >= 0 && !d.weighted {
		return false, 0, nil
	}
	// On an unweighted graph every weight is 1 and a sum of ones is exact,
	// so the terms below are the ones a stored weight list and its running
	// total gave.
	oldT := float64(len(list))
	var ws []float64
	if d.weighted {
		ws, oldT = d.w[dst], d.totw[dst]
	}

	// Exact δ = ‖q'_dst − q_dst‖₁ for the column renormalisation.
	newT := oldT + weight
	var delta float64
	if oldT == 0 {
		// First in-edge: the column goes from all-zero to e_src.
		delta = 1
	} else {
		for i := range list {
			wOld := 1.0
			if d.weighted {
				wOld = ws[i]
			}
			wNew := wOld
			if i == pos {
				wNew += weight
			}
			delta += math.Abs(wNew/newT - wOld/oldT)
		}
		if pos < 0 {
			delta += weight / newT
		}
	}

	if pos >= 0 {
		ws[pos] += weight
	} else {
		d.src[dst] = append(d.src[dst], int32(src))
		if d.weighted {
			d.w[dst] = append(ws, weight)
		}
		d.m++
	}
	if d.weighted {
		d.totw[dst] = newT
	}

	if countDrift {
		driftDelta = DriftContribution(d.c, delta)
		d.drift += driftDelta
		d.edges++
	}
	return true, driftDelta, nil
}

// MaterializeCOO renders the live edge set as a COO adjacency. The COO
// canonicalisation in ToCSR (sort by (row, col), merge duplicates) makes
// the downstream graph — and therefore a rebuild's Precompute output —
// bitwise-independent of the order edges were applied in. ToCSR sums
// duplicates in insertion order, which would let that order show, but
// none reach it from here: src[v] holds each source once (ApplyEdge folds a
// repeated edge into its entry's weight), so every (row, col) is emitted
// exactly once and only the sort decides the layout.
func (d *Dynamic) MaterializeCOO() (*sparse.COO, error) {
	coo := sparse.NewCOO(d.n, d.n)
	for v := 0; v < d.n; v++ {
		for i, u := range d.src[v] {
			w := 1.0
			if d.weighted {
				w = d.w[v][i]
			}
			if err := coo.Add(int(u), v, w); err != nil {
				return nil, fmt.Errorf("core: materialize dynamic graph: %w", err)
			}
		}
	}
	return coo, nil
}

// MaterializeGraph renders the live edge set as a graph.Graph, the
// input a drift-triggered full rebuild precomputes over.
func (d *Dynamic) MaterializeGraph() (*graph.Graph, error) {
	coo, err := d.MaterializeCOO()
	if err != nil {
		return nil, err
	}
	if d.weighted {
		return graph.NewWeighted(coo)
	}
	return graph.New(coo), nil
}
