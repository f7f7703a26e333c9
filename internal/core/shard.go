package core

// shard.go holds the one factor type. Because phase II is
// [S]_{*,Q} = [I_n]_{*,Q} + c · Z · [U]_{Q,*}ᵀ, output row i depends only
// on row i of Z (plus the |Q| broadcast rows of U), so the factor matrices
// partition cleanly by contiguous node range. An IndexShard owns rows
// [lo, hi) of both Z and U and can score exactly its own nodes; a router
// that gathers the U rows of the query nodes from their owner shards and
// broadcasts them reproduces the monolithic answer bitwise — same
// dot-product kernel, same per-element operation order (dot, ×c, +1). An
// Index is its [0, n) shard plus build metadata (csrplus.go), so every
// method here runs on whole indexes too.
//
// Shards persist under the "CSRS" header of the snapshot format
// (persist.go, persist2.go; byte layout in DESIGN.md §13). The global n
// travels with every shard so a router can refuse to assemble shards cut
// from different graphs.

import (
	"context"
	"fmt"
	"math"
	"sync"

	"csrplus/internal/dense"
	"csrplus/internal/par"
	"csrplus/internal/topk"
)

// IndexShard is the contiguous node range [Lo, Hi) of the factors: the
// corresponding rows of Z = U(ΣPΣ) and of the left singular vectors U,
// plus the global metadata (n, c, rank) needed to answer queries and to
// validate reassembly. It is immutable after construction, so any number
// of goroutines may query it. A shard never owns the memory behind its
// factors: they are heap slices, or views into an Index that does.
type IndexShard struct {
	n      int // global node count
	lo, hi int
	c      float64
	rank   int
	z      *dense.Mat // rows [lo, hi) of Z, (hi-lo) x rank — exact tier only; nil when quantized
	u      *dense.Mat // rows [lo, hi) of U, (hi-lo) x rank — exact tier only

	// Quantized tiers (tier.go) store the factors as dense.Typed with
	// per-column scales instead of z/u, plus the measured per-column
	// dequantisation errors that feed QuantBound (global per-column, shared
	// by all shards cut from one index, so routers can recompose the
	// bound). Exactly one of (z, u) and (zt, ut) is populated.
	zt, ut       *dense.Typed
	zqerr, uqerr []float64
}

// Shard slices the index to the node range [lo, hi). The shard is a
// zero-copy view: it shares the index's backing arrays, so slicing an
// index into K shards costs O(K), not O(rn). When the index is memory-
// mapped the view aliases the mapping but never owns it, and the caller
// owns the lifetime: the index must stay open until no query can still
// reach the shard (a serving generation closes it from
// reload.Candidate.Release, after the swap that retired the generation
// has drained).
func (ix *Index) Shard(lo, hi int) (*IndexShard, error) {
	if lo < 0 || hi > ix.n || lo >= hi {
		return nil, fmt.Errorf("core: shard range [%d, %d) not within [0, %d): %w", lo, hi, ix.n, ErrParams)
	}
	sh := ix.IndexShard // copies the shard part only: Index carries sync.Once fields
	sh.lo, sh.hi = lo, hi
	if ix.zt != nil {
		sh.zt = ix.zt.SliceRowsView(lo, hi)
		sh.ut = ix.ut.SliceRowsView(lo, hi)
	} else {
		sh.z = &dense.Mat{Rows: hi - lo, Cols: ix.rank, Data: ix.z.Data[lo*ix.rank : hi*ix.rank]}
		sh.u = &dense.Mat{Rows: hi - lo, Cols: ix.rank, Data: ix.u.Data[lo*ix.rank : hi*ix.rank]}
	}
	return &sh, nil
}

// N returns the GLOBAL node count of the graph the shard was cut from.
func (sh *IndexShard) N() int { return sh.n }

// Lo returns the first node the shard owns.
func (sh *IndexShard) Lo() int { return sh.lo }

// Hi returns one past the last node the shard owns.
func (sh *IndexShard) Hi() int { return sh.hi }

// Rows returns how many nodes the shard owns.
func (sh *IndexShard) Rows() int { return sh.hi - sh.lo }

// Rank returns the SVD rank of the shard's factors.
func (sh *IndexShard) Rank() int { return sh.rank }

// Damping returns the damping factor baked into the shard.
func (sh *IndexShard) Damping() float64 { return sh.c }

// Bytes reports the resident memory of the shard's factors — the 1/K
// slice of the index's O(rn) that actually lives on this shard, at the
// tier's element width.
func (sh *IndexShard) Bytes() int64 {
	if sh.zt != nil {
		return sh.zt.Bytes() + sh.ut.Bytes()
	}
	return sh.z.Bytes() + sh.u.Bytes()
}

// Tier returns the storage tier of the factors.
func (sh *IndexShard) Tier() Tier {
	if sh.zt == nil {
		return TierF64
	}
	if sh.zt.Kind == dense.F32 {
		return TierF32
	}
	return TierI8
}

// Owns reports whether global node q falls in the shard's range.
func (sh *IndexShard) Owns(q int) bool { return q >= sh.lo && q < sh.hi }

// URow returns the shard's U row for global node q, which must be owned.
// For the exact tier the slice aliases the shard's backing array and must
// not be modified — it is the row a router gathers into its query
// broadcast, and sharing the exact float64s is what keeps sharded scores
// bitwise-identical to the monolithic path. Quantized tiers return a
// fresh dequantised copy; because dequantisation is elementwise, the
// copy's float64s still equal the ones a quantized monolith would gather,
// preserving the bitwise contract tier-for-tier.
func (sh *IndexShard) URow(q int) []float64 {
	if !sh.Owns(q) {
		panic(fmt.Sprintf("core: URow(%d) outside shard [%d, %d)", q, sh.lo, sh.hi))
	}
	if sh.ut != nil {
		return sh.ut.RowInto(q-sh.lo, make([]float64, sh.rank))
	}
	return sh.u.Row(q - sh.lo)
}

// PartialInto computes the shard's slice of a (possibly rank-truncated)
// phase II answer: rows [lo, hi) of S' = [I]_{*,Q} + c · Z_{*,<r'} ·
// (U_{Q,<r'})ᵀ, written into out (which must be (hi-lo) x |Q|; pass a
// band view of a shared n x |Q| matrix for zero-copy scatter). uq holds
// the gathered U rows of the queries, row j for queries[j] — gathered
// globally by the router because query nodes usually live on other
// shards. queries are global ids and are only used here to place the +1
// self-similarity for query nodes this shard owns.
//
// This is the one banded phase-II loop: Index.QueryRankInto runs it on
// the [0, n) shard the index is, so stitching every shard's PartialInto output together
// reproduces the monolithic answer bitwise (each output element is one dot
// product in column index order, then ×c, then +1, whatever the banding).
// The GEMM runs in row bands with a cancellation check between bands, so a
// batch whose callers have all gone away stops consuming its worker
// mid-pass; returns ctx.Err() on cancellation.
func (sh *IndexShard) PartialInto(ctx context.Context, queries []int, uq *dense.Mat, rank int, out *dense.Mat) error {
	cols := len(queries)
	if cols == 0 {
		return fmt.Errorf("core: empty query set: %w", ErrParams)
	}
	if !uq.IsShape(cols, sh.rank) {
		return fmt.Errorf("core: uq is %dx%d, want %dx%d: %w", uq.Rows, uq.Cols, cols, sh.rank, ErrParams)
	}
	if !out.IsShape(sh.Rows(), cols) {
		return fmt.Errorf("core: out is %dx%d, want %dx%d: %w", out.Rows, out.Cols, sh.Rows(), cols, ErrParams)
	}
	if rank <= 0 || rank > sh.rank {
		rank = sh.rank
	}
	rows := sh.Rows()
	for lo := 0; lo < rows; lo += queryBandRows {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + queryBandRows
		if hi > rows {
			hi = rows
		}
		sBand := &dense.Mat{Rows: hi - lo, Cols: cols, Data: out.Data[lo*cols : hi*cols]}
		if sh.zt != nil {
			dense.MulTRankTypedInto(sBand, sh.zt.SliceRowsView(lo, hi), uq, rank)
		} else {
			zBand := &dense.Mat{Rows: hi - lo, Cols: sh.rank, Data: sh.z.Data[lo*sh.rank : hi*sh.rank]}
			dense.MulTRankInto(sBand, zBand, uq, rank)
		}
	}
	out.Scale(sh.c)
	for j, q := range queries {
		if sh.Owns(q) {
			i := q - sh.lo
			out.Set(i, j, out.At(i, j)+1)
		}
	}
	return nil
}

// topkTileFloats bounds PartialTopK's working set: a worker scores
// topkTileFloats/|Q| rows (at most topkMaxBand, at least topkMinBand)
// against every query between selector pushes, so the 256 KiB tile of
// scores is summed and selected out of L2 while it is hot and the band of
// Z behind it is the only thing streamed from memory.
const (
	topkTileFloats = 1 << 15
	topkMaxBand    = 4096
	topkMinBand    = 64
)

// topkBand returns how many rows PartialTopK scores per selector push for
// a cols-source query. The tile is band x cols floats, so an oversized
// query set grows it linearly (64 rows per source) but never to n x |Q|.
func topkBand(cols int) int {
	return max(topkMinBand, min(topkMaxBand, topkTileFloats/cols))
}

// topkScratch is what one PartialTopK worker scores through: the tile of
// band x |Q| scores, their per-row sums, and the quantized tiers'
// dequantisation buffer. Pooled, so a request allocates none of it.
type topkScratch struct {
	tile *dense.Mat
	sums []float64
	deq  []float64
}

var topkScratchPool = sync.Pool{New: func() any { return new(topkScratch) }}

// PartialTopK returns the shard's k best owned nodes for a query set by
// summed similarity Σ_j S'[i, queries[j]], every query node excluded,
// without materialising anything of the shard's length: each band of rows
// is scored against all |Q| gathered query rows into a cache-sized tile
// (PartialInto's micro-kernel, then ×c), the tile's rows are summed left
// to right and the band of sums goes straight into a bounded selector.
// The +1 of S = I + c·Z·Uᵀ sits on query nodes only, and those are never
// ranked, so it drops out.
//
// Per node that is PartialInto's dot, ×c for each column, then 0 + col₀ +
// col₁ + … in query order — the sum csrplus.Engine.TopKMulti takes over
// the materialised columns — so the answer is that reference's bit for
// bit, at any shard cut, band size and worker count; a single source is
// not summed at all (no 0 + x: a -0.0 score keeps its sign) and is bit for
// bit Select over PartialInto's column. The row range is split across par
// workers above its flop threshold, each with its own selector and
// scratch; topk.Merge of the per-worker lists is order-independent. uq is
// the gathered |Q| x r query broadcast (see PartialInto); items carry
// global node ids. Honours ctx between bands.
func (sh *IndexShard) PartialTopK(ctx context.Context, queries []int, uq *dense.Mat, k, rank int) ([]topk.Item, error) {
	cols := len(queries)
	if cols == 0 {
		return nil, fmt.Errorf("core: empty query set: %w", ErrParams)
	}
	if !uq.IsShape(cols, sh.rank) {
		return nil, fmt.Errorf("core: uq is %dx%d, want %dx%d: %w", uq.Rows, uq.Cols, cols, sh.rank, ErrParams)
	}
	if rank <= 0 || rank > sh.rank {
		rank = sh.rank
	}
	exclude := make(map[int]bool, cols)
	for _, q := range queries {
		exclude[q] = true
	}
	var (
		mu    sync.Mutex
		lists [][]topk.Item
		first error
	)
	band := topkBand(cols)
	flops := int64(sh.Rows()) * int64(rank) * int64(cols)
	par.DoAligned(sh.Rows(), band, flops, func(lo, hi int) {
		items, err := sh.scanTopK(ctx, lo, hi, band, uq, k, rank, exclude)
		mu.Lock()
		defer mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
		lists = append(lists, items)
	})
	if first != nil {
		return nil, first
	}
	if len(lists) == 1 {
		return lists[0], nil
	}
	return topk.Merge(k, lists...), nil
}

// scanTopK is one worker's share of PartialTopK: the k best of the
// shard's rows [lo, hi), scored band rows at a time.
func (sh *IndexShard) scanTopK(ctx context.Context, lo, hi, band int, uq *dense.Mat, k, rank int, exclude map[int]bool) ([]topk.Item, error) {
	sc := topkScratchPool.Get().(*topkScratch)
	defer func() {
		// A query set past 512 sources outgrows the tile budget (64 rows
		// each); that tile is the request's, not the pool's to keep.
		if sc.tile == nil || cap(sc.tile.Data) <= topkTileFloats {
			topkScratchPool.Put(sc)
		}
	}()
	cols := uq.Rows
	if cols > 1 && cap(sc.sums) < band {
		sc.sums = make([]float64, band)
	}
	sel := topk.NewSelector(k, exclude)
	for b := lo; b < hi; b += band {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e := min(b+band, hi)
		if sh.zt != nil {
			sc.tile, sc.deq = dense.MulTRankTypedRowsInto(sc.tile, sh.zt, uq, rank, b, e, sc.deq)
		} else {
			sc.tile = dense.MulTRankRowsInto(sc.tile, sh.z, uq, rank, b, e)
		}
		scores := sc.tile.Data
		if cols == 1 {
			sc.tile.Scale(sh.c)
		} else {
			scores = sc.sums[:e-b]
			for i := range scores {
				sum := 0.0
				for _, v := range sc.tile.Data[i*cols : (i+1)*cols] {
					sum += float64(v * sh.c) // rounded before the add, as Scale then += would
				}
				scores[i] = sum
			}
		}
		sel.Push(sh.lo+b, scores)
	}
	return sel.Items(), nil
}

// ScoreRows computes the scores of chosen owned rows against every query
// column — the targeted-pair primitive behind /similarity in the wire
// deployment, where materialising even one shard's full band for a
// handful of (query, target) pairs would waste the worker's memory
// bandwidth. out[i*|Q|+j] scores global row rows[i] against queries[j]:
// s = 1{rows[i]==queries[j]} + c · Σ_{k<rank} Z[rows[i]][k]·uq[j][k].
//
// Each element is bitwise-equal to the same element of PartialInto's
// band: the GEMM kernels accumulate every output element independently in
// ascending column order (see dense.MulTRankInto), which is exactly the
// plain dot product below, and the per-element operation order (dot, ×c,
// +1) is shared. Quantized tiers dequantise the Z row elementwise first,
// matching MulTRankTypedInto's row bands.
func (sh *IndexShard) ScoreRows(ctx context.Context, queries []int, uq *dense.Mat, rows []int, rank int) ([]float64, error) {
	cols := len(queries)
	if cols == 0 {
		return nil, fmt.Errorf("core: empty query set: %w", ErrParams)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: empty row set: %w", ErrParams)
	}
	if !uq.IsShape(cols, sh.rank) {
		return nil, fmt.Errorf("core: uq is %dx%d, want %dx%d: %w", uq.Rows, uq.Cols, cols, sh.rank, ErrParams)
	}
	if rank <= 0 || rank > sh.rank {
		rank = sh.rank
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]float64, len(rows)*cols)
	var zrow []float64
	if sh.zt != nil {
		zrow = make([]float64, sh.rank)
	}
	for i, t := range rows {
		if !sh.Owns(t) {
			return nil, fmt.Errorf("core: row %d outside shard [%d, %d): %w", t, sh.lo, sh.hi, ErrQuery)
		}
		if sh.zt != nil {
			sh.zt.RowInto(t-sh.lo, zrow)
		} else {
			zrow = sh.z.Row(t - sh.lo)
		}
		for j, q := range queries {
			urow := uq.Row(j)
			s := 0.0
			for k := 0; k < rank; k++ {
				s += zrow[k] * urow[k]
			}
			s *= sh.c
			if t == q {
				s++
			}
			out[i*cols+j] = s
		}
	}
	return out, nil
}

// ColMaxes returns the per-column maxima max|Z_{[lo:hi),j}| and
// max|U_{[lo:hi),j}| over the shard's rows. Because a max over the full
// column is the max of the per-shard maxima, a router combines these and
// runs Index.TruncationBound's recurrence to get a truncation bound
// bitwise-equal to the monolithic one.
func (sh *IndexShard) ColMaxes() (zmax, umax []float64) {
	if sh.zt != nil {
		return sh.zt.ColAbsMax(), sh.ut.ColAbsMax()
	}
	colMax := func(m *dense.Mat) []float64 {
		mx := make([]float64, m.Cols)
		for i := 0; i < m.Rows; i++ {
			row := m.Row(i)
			for j, v := range row {
				if a := math.Abs(v); a > mx[j] {
					mx[j] = a
				}
			}
		}
		return mx
	}
	return colMax(sh.z), colMax(sh.u)
}

// QuantErrs returns the measured per-column dequantisation error vectors
// of a quantized shard (nil, nil for the exact tier). They are global
// per-column quantities — identical across every shard cut from one
// index — so a router can feed any shard's copy into QuantBound.
func (sh *IndexShard) QuantErrs() (zerr, uerr []float64) {
	return sh.zqerr, sh.uqerr
}

// TailBound runs Index.TruncationBound's recurrence over combined
// per-column maxima: boundTail[j] = boundTail[j+1] + c·zmax[j]·umax[j],
// returning boundTail so callers can index it by retained rank. Exposed
// from core so the router and the Index share one formula.
func TailBound(c float64, zmax, umax []float64) []float64 {
	r := len(zmax)
	tail := make([]float64, r+1)
	for j := r - 1; j >= 0; j-- {
		tail[j] = tail[j+1] + c*zmax[j]*umax[j]
	}
	return tail
}
