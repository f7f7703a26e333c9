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

type dynEdge struct {
	src int32
	w   float64
}

// Dynamic maintains the live in-neighbour lists and the cumulative drift
// bound. It is not safe for concurrent use; the ingest service serializes
// access.
type Dynamic struct {
	n        int
	c        float64
	weighted bool

	in   [][]dynEdge // in[v] = in-neighbours of v with weights
	totw []float64   // totw[v] = Σ weights into v (Q's column normaliser)
	m    int64       // live edge count (distinct (u,v) pairs)

	drift float64 // cumulative drift bound over drift-counted edges
	edges int64   // drift-counted edge applications
}

// NewDynamic builds the dynamic state for g served by ix's factors, which
// must match g's node count. Only ix's n and damping are read and nothing
// of it is retained, so any tier serves and the caller may close ix.
func NewDynamic(g *graph.Graph, ix *Index) (*Dynamic, error) {
	if g.N() != ix.n {
		return nil, fmt.Errorf("core: dynamic state over n=%d graph for n=%d index: %w", g.N(), ix.n, ErrParams)
	}
	d := &Dynamic{
		n:        ix.n,
		c:        ix.c,
		weighted: g.Weighted(),
		in:       make([][]dynEdge, ix.n),
		totw:     make([]float64, ix.n),
	}
	adj := g.Adj()
	// Every list is carved out of one backing array, in-degree long and
	// with no capacity to spare: the fill below appends in place, and
	// ApplyEdge's first append to in[v] copies that list out instead of
	// writing over the head of in[v+1].
	start := make([]int, d.n+1)
	for _, v := range adj.ColIdx {
		start[v+1]++
	}
	backing := make([]dynEdge, len(adj.ColIdx))
	for v := range d.in {
		start[v+1] += start[v]
		d.in[v] = backing[start[v]:start[v]:start[v+1]]
	}
	for u := 0; u < d.n; u++ {
		for p := adj.RowPtr[u]; p < adj.RowPtr[u+1]; p++ {
			v, w := int(adj.ColIdx[p]), adj.Val[p]
			d.in[v] = append(d.in[v], dynEdge{src: int32(u), w: w})
			d.totw[v] += w
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

	list := d.in[dst]
	pos := -1
	for i := range list {
		if int(list[i].src) == src {
			pos = i
			break
		}
	}
	if pos >= 0 && !d.weighted {
		return false, 0, nil
	}

	// Exact δ = ‖q'_dst − q_dst‖₁ for the column renormalisation.
	oldT := d.totw[dst]
	newT := oldT + weight
	var delta float64
	if oldT == 0 {
		// First in-edge: the column goes from all-zero to e_src.
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
		d.in[dst] = append(d.in[dst], dynEdge{src: int32(src), w: weight})
		d.m++
	}
	d.totw[dst] = newT

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
// none reach it from here: in[v] holds each source once (ApplyEdge folds a
// repeated edge into its entry's weight), so every (row, col) is emitted
// exactly once and only the sort decides the layout.
func (d *Dynamic) MaterializeCOO() (*sparse.COO, error) {
	coo := sparse.NewCOO(d.n, d.n)
	for v := 0; v < d.n; v++ {
		for _, e := range d.in[v] {
			if err := coo.Add(int(e.src), v, e.w); err != nil {
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
