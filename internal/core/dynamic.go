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

// maxDynamicEdges bounds what the int32 offsets of Dynamic can address: the
// boot graph's edge count and the streamed edge log's length. A variable so
// tests can reach the limit.
var maxDynamicEdges int64 = math.MaxInt32

// Dynamic maintains the live in-neighbour lists and the cumulative drift
// bound. It is not safe for concurrent use; the ingest service serializes
// access.
//
// It holds what the live graph needs and nothing more. The boot graph is
// one CSC — v's in-neighbours are srcs[start[v]:start[v+1]], ascending —
// and every streamed edge is one link of an arrival-ordered log, chained
// per target from first[v]. v's list is its boot list, then its chain:
// the order edges reached it. On an unweighted graph that is 4 B a boot
// edge, 8 B a node and 8 B a streamed edge (Bytes): every weight is 1 and
// Q's column normaliser is the list's length. The weights and their sums
// exist only on a weighted one.
type Dynamic struct {
	n        int
	c        float64
	weighted bool

	start []int32   // n+1 offsets into srcs
	srcs  []int32   // boot in-neighbours, target-major, ascending by source
	first []int32   // first[v] = 1 + the log index of v's first streamed in-edge; 0 for none
	log   []link    // streamed edges, in arrival order
	bw    []float64 // bw[p] = weight of srcs[p]'s edge; nil unless weighted
	lw    []float64 // lw[i] = weight of log[i]'s edge; nil unless weighted
	totw  []float64 // totw[v] = Σ of v's in-weights, Q's column normaliser; nil unless weighted
	m     int64     // live edge count (distinct (u,v) pairs)

	drift float64 // cumulative drift bound over drift-counted edges
	edges int64   // drift-counted edge applications
}

// link is one streamed in-edge: its source and 1 + the log index of the
// next streamed edge into the same target (0 ends the chain).
type link struct{ src, next int32 }

// NewDynamic builds the dynamic state for g served by ix's factors, which
// must match g's node count; g nil builds it from the graph ix carries —
// its snapshot's graph section, read with pread into memory the Dynamic
// owns (graphsec.go), or the graph ix was precomputed over. Only ix's n,
// damping and graph are read and nothing of ix or g is retained, so any
// tier serves and the caller may close ix and drop g.
func NewDynamic(g *graph.Graph, ix *Index) (*Dynamic, error) {
	if g == nil {
		cg := &ix.graph
		if cg.none() {
			return nil, fmt.Errorf("core: dynamic state from an index that carries no graph: %w", ErrParams)
		}
		if cg.m > maxDynamicEdges {
			return nil, fmt.Errorf("core: dynamic state over m=%d edges, at most %d: %w", cg.m, maxDynamicEdges, ErrParams)
		}
		l, err := cg.links(ix.n)
		if err != nil {
			return nil, err
		}
		return newDynamic(ix.n, ix.c, l, cg.weighted), nil
	}
	if g.N() != ix.n {
		return nil, fmt.Errorf("core: dynamic state over n=%d graph for n=%d index: %w", g.N(), ix.n, ErrParams)
	}
	if g.M() > maxDynamicEdges {
		return nil, fmt.Errorf("core: dynamic state over m=%d edges, at most %d: %w", g.M(), maxDynamicEdges, ErrParams)
	}
	return newDynamic(ix.n, ix.c, inLinksOf(g), g.Weighted()), nil
}

// newDynamic is the one constructor: the dynamic state over an n-node
// graph whose in-link CSC is l, which it takes over.
func newDynamic(n int, c float64, l *inLinks, weighted bool) *Dynamic {
	d := &Dynamic{
		n: n, c: c, weighted: weighted, m: int64(len(l.srcs)),
		start: l.start, srcs: l.srcs, bw: l.w, first: make([]int32, n),
	}
	if weighted {
		// Summed in list order, as a weight list and its running total are.
		d.totw = make([]float64, n)
		for v := 0; v < n; v++ {
			for _, w := range l.w[l.start[v]:l.start[v+1]] {
				d.totw[v] += w
			}
		}
	}
	return d
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

// Bytes returns the resident bytes of the live graph: the boot CSC, the
// chain heads and the streamed edge log at its capacity, plus the weights
// and column totals on a weighted graph.
func (d *Dynamic) Bytes() int64 {
	b := 4*int64(len(d.start)+len(d.srcs)+len(d.first)) + 8*int64(cap(d.log))
	if d.weighted {
		b += 8 * int64(len(d.bw)+cap(d.lw)+len(d.totw))
	}
	return b
}

// ApplyEdge inserts edge src -> dst with the given weight (weight 1 on
// an unweighted graph; on a weighted graph duplicate edges accumulate
// weight, mirroring NewWeighted's duplicate-sum semantics). It updates
// the in-neighbour structure and — when countDrift is true — charges the
// edge's drift contribution. On an
// unweighted graph a duplicate edge is a no-op (parallel edges collapse,
// mirroring graph.New), applied=false, zero drift. A new edge that would
// take the streamed edge log past what an int32 offset addresses is
// ErrParams, and nothing changes.
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

	// Find src in dst's list — the boot entry bp or the chain link lp — and
	// the chain's tail, where a new edge is linked in.
	lo, hi := d.start[dst], d.start[dst+1]
	bp, lp, tail := int32(-1), int32(-1), int32(-1)
	for p := lo; p < hi; p++ {
		if int(d.srcs[p]) == src {
			bp = p
			break
		}
	}
	deg := int(hi - lo)
	for i := d.first[dst] - 1; i >= 0; i = d.log[i].next - 1 {
		if int(d.log[i].src) == src {
			lp = i
		}
		deg++
		tail = i
	}
	found := bp >= 0 || lp >= 0
	if found && !d.weighted {
		return false, 0, nil
	}
	if !found && int64(len(d.log)) >= maxDynamicEdges {
		return false, 0, fmt.Errorf("core: edge (%d, %d) would grow the streamed edge log past %d: %w", src, dst, maxDynamicEdges, ErrParams)
	}
	// On an unweighted graph every weight is 1 and a sum of ones is exact,
	// so the terms below are the ones a stored weight list and its running
	// total gave.
	oldT := float64(deg)
	if d.weighted {
		oldT = d.totw[dst]
	}

	// Exact δ = ‖q'_dst − q_dst‖₁ for the column renormalisation, summed
	// over the list in its order: the boot entries, then the chain.
	newT := oldT + weight
	var delta float64
	if oldT == 0 {
		// First in-edge: the column goes from all-zero to e_src.
		delta = 1
	} else {
		for p := lo; p < hi; p++ {
			wOld := 1.0
			if d.weighted {
				wOld = d.bw[p]
			}
			wNew := wOld
			if p == bp {
				wNew += weight
			}
			delta += math.Abs(wNew/newT - wOld/oldT)
		}
		for i := d.first[dst] - 1; i >= 0; i = d.log[i].next - 1 {
			wOld := 1.0
			if d.weighted {
				wOld = d.lw[i]
			}
			wNew := wOld
			if i == lp {
				wNew += weight
			}
			delta += math.Abs(wNew/newT - wOld/oldT)
		}
		if !found {
			delta += weight / newT
		}
	}

	switch {
	case bp >= 0:
		d.bw[bp] += weight
	case lp >= 0:
		d.lw[lp] += weight
	default:
		d.log = append(d.log, link{src: int32(src)})
		if d.weighted {
			d.lw = append(d.lw, weight)
		}
		if next := int32(len(d.log)); tail < 0 {
			d.first[dst] = next
		} else {
			d.log[tail].next = next
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

// MaterializeGraph renders the live edge set as a graph.Graph, the input a
// drift-triggered full rebuild precomputes over. One counting pass sizes
// the rows; the fill then visits targets in ascending order, so every row
// comes out sorted by column with no sort, and a row holds each column once
// (ApplyEdge folds a repeated edge into its entry's weight). The layout is
// therefore a function of the edge set alone, never of the order edges
// were applied in — which makes a rebuild's Precompute output
// bitwise-independent of that order.
func (d *Dynamic) MaterializeGraph() (*graph.Graph, error) {
	rowPtr := make([]int64, d.n+1)
	for _, u := range d.srcs {
		rowPtr[u+1]++
	}
	for _, e := range d.log {
		rowPtr[e.src+1]++
	}
	for u := 0; u < d.n; u++ {
		rowPtr[u+1] += rowPtr[u]
	}
	colIdx := make([]int32, d.m)
	val := make([]float64, d.m)
	// rowPtr[u] is row u's fill cursor until it reaches rowPtr[u+1]; the
	// copy shifts the pointers back.
	for v := 0; v < d.n; v++ {
		for p := d.start[v]; p < d.start[v+1]; p++ {
			q := &rowPtr[d.srcs[p]]
			colIdx[*q], val[*q] = int32(v), 1
			if d.weighted {
				val[*q] = d.bw[p]
			}
			*q++
		}
		for i := d.first[v] - 1; i >= 0; i = d.log[i].next - 1 {
			q := &rowPtr[d.log[i].src]
			colIdx[*q], val[*q] = int32(v), 1
			if d.weighted {
				val[*q] = d.lw[i]
			}
			*q++
		}
	}
	copy(rowPtr[1:], rowPtr[:d.n])
	rowPtr[0] = 0
	adj, err := sparse.NewCSR(d.n, d.n, rowPtr, colIdx, val)
	if err != nil {
		return nil, fmt.Errorf("core: materialize dynamic graph: %w", err)
	}
	if d.weighted {
		return graph.FromWeightedCSR(adj)
	}
	return graph.FromCSR(adj)
}
