package core

// shard.go holds the one factor type and the one phase-II loop. Phase II is
// [S]_{*,Q} = [I_n]_{*,Q} + c · F · [F]_{Q,*}ᵀ with F the Gram factor of
// S_r − I (csrplus.go, THEORY.md §6), so output row i depends only on row i
// of F (plus the |Q| broadcast rows of F), and the factor partitions cleanly
// by contiguous node range. An IndexShard owns rows [lo, hi) of F and can
// score exactly its own nodes; a router that gathers the F rows of the query
// nodes from their owner shards and broadcasts them reproduces the
// monolithic answer bitwise. An Index is its [0, n) shard plus build
// metadata (csrplus.go), so every method here runs on whole indexes too.
//
// A shard stores only the rows that can score. A node nobody links to is an
// empty column of Q, so its row of F is all +0 (THEORY.md §5): Precompute
// leaves it out and ids lists, ascending, the rows that are there (nil:
// every row of [lo, hi), the identity map). A row left out is implicit: it
// gathers as zeros, and against finite query rows — checkQuery holds every
// consumer to them — it scores exactly +0 under every kernel (accumulators
// start at +0, +0 + ∓0 = +0, ×c keeps it), which is what each consumer
// fills in without scanning it.
//
// One scan, three consumers, one representation: the factor is stored
// once, as dense.Typed at the tier's element width (the F64 kind is the
// exact tier), and every score the package serves is produced by scan —
// a band of rows through the dense row-range kernel, then ×c. PartialInto
// lands the bands in the caller's column block, PartialTopK streams each
// band, summed over the query set, into a selector, ScoreRows scans
// one-row bands; the +1 of the identity is each consumer's last step. Per
// element that is dot, ×c, +1 whatever the consumer, tier, banding, shard
// cut or worker count — what keeps them bitwise-equal to each other.
//
// Shards persist under the "CSRS" header of the snapshot format
// (persist.go, persist2.go; byte layout in DESIGN.md §13). The global n and
// the build id travel with every shard so a router can refuse to assemble
// shards cut from different graphs.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"csrplus/internal/dense"
	"csrplus/internal/par"
	"csrplus/internal/topk"
)

// IndexShard is the contiguous node range [Lo, Hi) of the factor: the
// corresponding rows of F, plus the global metadata (n, c, rank, build id,
// Gram clamp charge) needed to answer queries, bound them and validate
// reassembly. It is immutable after construction, so any number of
// goroutines may query it. A shard never owns the memory behind its
// factor: it is a heap slice, or a view into an Index that does.
type IndexShard struct {
	n      int // global node count
	lo, hi int
	c      float64
	rank   int

	// build names the index build the rows come from (buildID); a shard
	// carries its parent's.
	build uint64
	// clamp is c·Σ|λ| over the eigenvalues of W = ΣPΣ that came out
	// negative and were served as 0: what the clamp may move a score by,
	// charged to every bound (THEORY.md §6). 0 on every graph whose
	// retained singular values are positive.
	clamp float64

	// ids lists, ascending, the global ids of the rows f stores; nil means
	// every row of [lo, hi), in place. Rows left out are all +0.
	ids []int32

	// f is the stored rows of F, Stored() x rank, at the tier's element
	// width. The F64 kind is the exact tier: a view over the heap or mmap'd
	// []float64. Quantized tiers (tier.go) carry their per-column scales
	// inside the Typed, and fqerr holds the measured per-column
	// dequantisation errors that feed QuantBound (global per-column, shared
	// by all shards cut from one index, so routers can recompose the
	// bound); nil on the exact tier.
	f     *dense.Typed
	fqerr []float64
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
	a, b := lo, hi // the stored rows of [lo, hi)
	if ix.ids != nil {
		a, _ = slices.BinarySearch(ix.ids, int32(lo))
		b, _ = slices.BinarySearch(ix.ids, int32(hi))
		if sh.ids = ix.ids[a:b]; b-a == hi-lo {
			sh.ids = nil
		}
	}
	sh.f = ix.f.SliceRowsView(a, b)
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

// Stored returns how many of its nodes the shard stores factor rows for;
// the other Rows() - Stored() are implicit zero rows.
func (sh *IndexShard) Stored() int { return sh.f.Rows }

// StoredNode returns the global id of the i-th stored row, ascending in i.
func (sh *IndexShard) StoredNode(i int) int {
	if sh.ids == nil {
		return sh.lo + i
	}
	return int(sh.ids[i])
}

// row returns where owned node q's factor row is stored, false when it is
// implicit.
func (sh *IndexShard) row(q int) (int, bool) {
	if sh.ids == nil {
		return q - sh.lo, true
	}
	return slices.BinarySearch(sh.ids, int32(q))
}

// CheckStored reports whether the stored rows are ones the shard can own:
// no more of them than nodes, ids strictly ascending inside [lo, hi). The
// snapshot parser and reload.ValidateShard both refuse a shard that fails.
func (sh *IndexShard) CheckStored() error {
	stored, rows := sh.Stored(), sh.Rows()
	if (sh.ids == nil && stored != rows) || (sh.ids != nil && (len(sh.ids) != stored || stored >= rows)) {
		return fmt.Errorf("core: %d rows of F and %d ids stored for the %d nodes of [%d, %d)", stored, len(sh.ids), rows, sh.lo, sh.hi)
	}
	prev := sh.lo - 1
	for i, id := range sh.ids {
		if int(id) <= prev || int(id) >= sh.hi {
			return fmt.Errorf("core: stored row %d is node %d, want one in (%d, %d)", i, id, prev, sh.hi)
		}
		prev = int(id)
	}
	return nil
}

// Rank returns the SVD rank of the shard's factor.
func (sh *IndexShard) Rank() int { return sh.rank }

// Build returns the id of the index build the shard's rows come from: the
// same for every shard cut from one index, and for identical rebuilds.
func (sh *IndexShard) Build() uint64 { return sh.build }

// ClampBound returns the Gram clamp's charge c·Σ|λ_clamped|, which every
// bound the index reports includes (0 when no eigenvalue was clamped).
func (sh *IndexShard) ClampBound() float64 { return sh.clamp }

// Damping returns the damping factor baked into the shard.
func (sh *IndexShard) Damping() float64 { return sh.c }

// Bytes reports the resident memory of the shard's factor — the stored
// rows of the 1/K slice of the index's O(rn) that lives on this shard, at
// the tier's element width, plus their id list.
func (sh *IndexShard) Bytes() int64 { return sh.f.Bytes() + int64(len(sh.ids))*4 }

// Tier returns the storage tier of the factor: its element kind.
func (sh *IndexShard) Tier() dense.Kind { return sh.f.Kind }

// Owns reports whether global node q falls in the shard's range.
func (sh *IndexShard) Owns(q int) bool { return q >= sh.lo && q < sh.hi }

// URow returns the shard's F row for global node q, which must be owned —
// the query side of c·F·Fᵀ is the same factor as the scanned side.
// For the exact tier the slice aliases the shard's backing array and must
// not be modified — it is the row a router gathers into its query
// broadcast, and sharing the exact float64s is what keeps sharded scores
// bitwise-identical to the monolithic path. Quantized tiers return a
// fresh dequantised copy; because dequantisation is elementwise, the
// copy's float64s still equal the ones a quantized monolith would gather,
// preserving the bitwise contract tier-for-tier. An implicit row is a fresh
// row of zeros on every tier.
func (sh *IndexShard) URow(q int) []float64 {
	if !sh.Owns(q) {
		panic(fmt.Sprintf("core: URow(%d) outside shard [%d, %d)", q, sh.lo, sh.hi))
	}
	i, ok := sh.row(q)
	switch {
	case !ok:
		return make([]float64, sh.rank)
	case sh.f.Kind == dense.F64:
		return sh.f.F64[i*sh.rank : (i+1)*sh.rank]
	}
	return sh.f.RowInto(i, make([]float64, sh.rank))
}

// gatherF returns [F]_{Q,*}, row j the F row of owned node queries[j], as
// float64 (dequantised on a quantized tier).
func (sh *IndexShard) gatherF(queries []int) *dense.Mat {
	uq := dense.NewMat(len(queries), sh.rank)
	for j, q := range queries {
		copy(uq.Row(j), sh.URow(q))
	}
	return uq
}

// scanTileFloats bounds the scan's working set: a band is
// scanTileFloats/|Q| rows (at most scanMaxBand, at least scanMinBand), so
// its 256 KiB tile of scores is scaled — and, when ranked, summed and
// selected — out of L2 while it is hot, and the band of F behind it is the
// only thing streamed from memory. A band is also the cancellation
// granule: an abandoned request releases its worker within one band.
const (
	scanTileFloats = 1 << 15
	scanMaxBand    = 4096
	scanMinBand    = 64
)

// scanBand returns how many rows one band of a cols-source scan covers.
// The tile is band x cols floats, so an oversized query set grows it
// linearly (64 rows per source) but never to n x |Q|.
func scanBand(cols int) int {
	return max(scanMinBand, min(scanMaxBand, scanTileFloats/cols))
}

// scanScratch is what one scan scores through: the band x |Q| tile and its
// per-row sums for a caller that ranks rows, the header that views a band
// of the destination of one that wants the block, and the quantized tiers'
// dequantisation buffer. Pooled, so a request allocates none of it.
type scanScratch struct {
	tile *dense.Mat
	sums []float64
	view dense.Mat
	deq  []float64
}

var scanPool = sync.Pool{New: func() any { return new(scanScratch) }}

// scan is the one phase-II loop: it scores the shard's stored rows [lo, hi)
// (positions in f; the identity map makes them node offsets) against the
// gathered query rows uq (|Q| x r, row j for the j-th query),
// band rows at a time — F_band · uqᵀ through the dense row-range kernel,
// then ×c — checking ctx once per band, and finishes a band one of two
// ways. With a dst ((hi-lo) x |Q|) the tile is the band's
// view of dst: the scaled scores land where the caller wants them. With a
// visit func the tile is pooled scratch and visit gets the band's first
// row and one score a row (rowScores), valid until it returns.
func (sh *IndexShard) scan(ctx context.Context, uq *dense.Mat, lo, hi, band int, dst *dense.Mat, visit func(b int, scores []float64)) error {
	sc := scanPool.Get().(*scanScratch)
	defer func() {
		sc.view = dense.Mat{} // the pool must not keep the caller's dst alive
		// A query set past 512 sources outgrows the tile budget (64 rows
		// each); that tile is the request's, not the pool's to keep.
		if sc.tile == nil || cap(sc.tile.Data) <= scanTileFloats {
			scanPool.Put(sc)
		}
	}()
	cols := uq.Rows
	for b := lo; b < hi; b += band {
		if err := ctx.Err(); err != nil {
			return err
		}
		e := min(b+band, hi)
		tile := sc.tile
		if dst != nil {
			sc.view = dense.Mat{Rows: e - b, Cols: cols, Data: dst.Data[(b-lo)*cols : (e-lo)*cols]}
			tile = &sc.view
		}
		tile, sc.deq = dense.MulTTypedRowsInto(tile, sh.f, uq, b, e, sc.deq)
		if dst != nil {
			tile.Scale(sh.c)
		} else {
			sc.tile = tile
			visit(b, sh.rowScores(sc))
		}
	}
	return nil
}

// rowScores finishes a band that is being ranked: one score a row, the
// row's |Q| scores — each ×c — summed left to right in query order. The ×c
// is fused into the sum, one pass over the tile instead of two with the
// same roundings, and the sums go to their own buffer: written over the
// tile's head they cost 8 % of a 16-source scan in 4 KiB store-load
// aliasing. A single source is not summed at all: no 0 + x, so a -0.0 score
// keeps its sign.
func (sh *IndexShard) rowScores(sc *scanScratch) []float64 {
	tile := sc.tile
	cols := tile.Cols
	if cols == 1 {
		return tile.Scale(sh.c).Data
	}
	if cap(sc.sums) < tile.Rows {
		sc.sums = make([]float64, tile.Rows)
	}
	scores := sc.sums[:tile.Rows]
	for i := range scores {
		sum := 0.0
		for _, v := range tile.Data[i*cols : (i+1)*cols] {
			sum += float64(v * sh.c) // rounded before the add, as Scale then += would
		}
		scores[i] = sum
	}
	return scores
}

// eachRange splits the shard's stored rows across par workers on band
// boundaries (above par's flop threshold on the work they are), runs body
// once per worker range and returns the first error. A shard that stores
// nothing runs no body.
func (sh *IndexShard) eachRange(cols int, body func(lo, hi, band int) error) error {
	var first struct {
		sync.Mutex
		err error
	}
	band := scanBand(cols)
	flops := int64(sh.Stored()) * int64(sh.rank) * int64(cols)
	par.DoAligned(sh.Stored(), band, flops, func(lo, hi int) {
		if err := body(lo, hi, band); err != nil {
			first.Lock()
			defer first.Unlock()
			if first.err == nil {
				first.err = err
			}
		}
	})
	return first.err
}

// checkQuery validates a consumer's query set against its gathered rows.
// The gathered rows must be finite: a zero row of F scores +0 against those
// and NaN against anything else, and the rows a shard leaves out are only
// ever given the +0.
func (sh *IndexShard) checkQuery(queries []int, uq *dense.Mat) error {
	if len(queries) == 0 {
		return fmt.Errorf("core: empty query set: %w", ErrParams)
	}
	if !uq.IsShape(len(queries), sh.rank) {
		return fmt.Errorf("core: uq is %dx%d, want %dx%d: %w", uq.Rows, uq.Cols, len(queries), sh.rank, ErrParams)
	}
	for i, v := range uq.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: non-finite query row: F[%d, %d] = %v: %w", queries[i/sh.rank], i%sh.rank, v, ErrParams)
		}
	}
	return nil
}

// PartialInto computes the shard's slice of the phase II answer: rows
// [lo, hi) of S = [I]_{*,Q} + c · F · F_Qᵀ, written into out (which must
// be (hi-lo) x |Q|; pass a band view of a shared n x |Q| matrix for
// zero-copy scatter). uq holds
// the gathered F rows of the queries, row j for queries[j] — gathered
// globally by the router because query nodes usually live on other
// shards. queries are global ids and are only used here to place the +1
// self-similarity for query nodes this shard owns.
//
// Index.QueryRankInto runs it on the [0, n) shard the index is, so
// stitching every shard's PartialInto output together reproduces the
// monolithic answer bitwise. The scan writes each scaled band straight
// into out, split across par workers — the stored rows packed at out's
// head, then spread to their own rows over zeros when some are implicit;
// returns ctx.Err() on cancellation. The int is ignored; it stays only
// because the benchmark harness (csrload) passes it (ROADMAP item 1 Step B).
func (sh *IndexShard) PartialInto(ctx context.Context, queries []int, uq *dense.Mat, _ int, out *dense.Mat) error {
	if err := sh.checkQuery(queries, uq); err != nil {
		return err
	}
	cols := len(queries)
	if !out.IsShape(sh.Rows(), cols) {
		return fmt.Errorf("core: out is %dx%d, want %dx%d: %w", out.Rows, out.Cols, sh.Rows(), cols, ErrParams)
	}
	err := sh.eachRange(cols, func(lo, hi, band int) error {
		dst := &dense.Mat{Rows: hi - lo, Cols: cols, Data: out.Data[lo*cols : hi*cols]}
		return sh.scan(ctx, uq, lo, hi, band, dst, nil)
	})
	if err != nil {
		return err
	}
	// Last row first: row i belongs at or below where it lies, so no move
	// lands on a row that has yet to make its own.
	if end := sh.Rows(); sh.ids != nil {
		for i := len(sh.ids) - 1; i >= 0; i-- {
			at := int(sh.ids[i]) - sh.lo
			clear(out.Data[(at+1)*cols : end*cols])
			if at != i {
				copy(out.Data[at*cols:(at+1)*cols], out.Data[i*cols:(i+1)*cols])
			}
			end = at
		}
		clear(out.Data[:end*cols])
	}
	for j, q := range queries {
		if sh.Owns(q) {
			out.Data[(q-sh.lo)*cols+j]++
		}
	}
	return nil
}

// PartialTopK returns the shard's k best owned nodes for a query set by
// summed similarity Σ_j S'[i, queries[j]], every query node excluded,
// without materialising anything of the shard's length: the scan hands over
// each band as one score a row (rowScores) and the band goes straight into
// a bounded selector. The +1 of S = I + c·F·Fᵀ sits on query nodes only,
// and those are never ranked, so it drops out.
//
// Per node that is the scan's dot, ×c for each column, then 0 + col₀ +
// col₁ + … in query order — the sum csrplus.Engine.TopKMulti takes over
// the materialised columns — so the answer is that reference's bit for
// bit, at any shard cut, band size and worker count, and a single source
// is bit for bit Select over PartialInto's column. Each par worker has its
// own selector — holding at most the rows it scans, so k is only ever an
// upper bound, never an allocation size — and topk.Merge of the per-worker
// lists is order-independent. The implicit rows are one more list for it
// (implicitTopK), node-disjoint from the rest like any other worker's,
// whenever one of them could place. uq
// is the gathered |Q| x r query broadcast (see PartialInto); items carry
// global node ids. Honours ctx between bands.
func (sh *IndexShard) PartialTopK(ctx context.Context, queries []int, uq *dense.Mat, k int) ([]topk.Item, error) {
	if err := sh.checkQuery(queries, uq); err != nil {
		return nil, err
	}
	cols := len(queries)
	exclude := make(map[int]bool, cols)
	for _, q := range queries {
		exclude[q] = true
	}
	var kept struct {
		sync.Mutex
		lists [][]topk.Item
	}
	err := sh.eachRange(cols, func(lo, hi, band int) error {
		sel := topk.NewSelector(min(k, hi-lo), exclude)
		err := sh.scan(ctx, uq, lo, hi, band, nil, func(b int, scores []float64) {
			if sh.ids == nil {
				sel.Push(sh.lo+b, scores)
			} else {
				sel.PushIDs(sh.ids[b:b+len(scores)], scores)
			}
		})
		if err != nil {
			return err
		}
		kept.Lock()
		defer kept.Unlock()
		kept.lists = append(kept.lists, sel.Items())
		return nil
	})
	if err != nil {
		return nil, err
	}
	var best []topk.Item
	if len(kept.lists) == 1 {
		best = kept.lists[0]
	} else {
		best = topk.Merge(k, kept.lists...)
	}
	// The rows left out score +0: against k stored rows that all score
	// above that they cannot place, and are not even listed.
	if sh.ids != nil && (len(best) < k || !(best[len(best)-1].Score > 0)) {
		best = topk.Merge(k, best, sh.implicitTopK(k, exclude))
	}
	return best, nil
}

// implicitTopK is the partial top-k of the rows the shard does not store.
// Every one of them scores +0, so under the package ordering the best k are
// the first k in id order that are not excluded: the gaps between stored
// ids are walked until k are found — O(k + |Q|) past the stored ids the
// walk steps over.
func (sh *IndexShard) implicitTopK(k int, exclude map[int]bool) []topk.Item {
	items := make([]topk.Item, 0, min(k, sh.Rows()-sh.Stored()))
	next := sh.lo // where the gap before stored row j starts
	for j := 0; j <= len(sh.ids) && len(items) < k; j++ {
		end := sh.hi
		if j < len(sh.ids) {
			end = int(sh.ids[j])
		}
		for id := next; id < end && len(items) < k; id++ {
			if !exclude[id] {
				items = append(items, topk.Item{Node: id})
			}
		}
		next = end + 1
	}
	return items
}

// VisitScores streams what PartialTopK ranks, before any selection: visit
// gets every stored row's node and its score summed over the query set in
// query order, query nodes included, without the +1 of the identity — band
// by band on the calling goroutine. Implicit rows score +0 and are not
// visited. It is the every-stored-row pass reload.ValidateShard makes.
func (sh *IndexShard) VisitScores(ctx context.Context, queries []int, uq *dense.Mat, visit func(node int, score float64)) error {
	if err := sh.checkQuery(queries, uq); err != nil {
		return err
	}
	return sh.scan(ctx, uq, 0, sh.Stored(), scanBand(len(queries)), nil, func(b int, scores []float64) {
		for i, v := range scores {
			visit(sh.StoredNode(b+i), v)
		}
	})
}

// maxScoreCells caps |rows| x |Q| of one ScoreRows: both arrive in a /shard/scores body; serve admits 2^20 pairs.
const maxScoreCells = 1 << 20

// ScoreRows computes the scores of chosen owned rows against every query
// column — the targeted-pair primitive behind /similarity in the wire
// deployment, where materialising even one shard's full band for a
// handful of (query, target) pairs would waste the worker's memory
// bandwidth. out[i*|Q|+j] scores global row rows[i] against queries[j]:
// s = 1{rows[i]==queries[j]} + c · Σ_k F[rows[i]][k]·uq[j][k].
//
// Each stored row is a one-row band of the scan, so every element is
// bitwise-equal to the same element of PartialInto's band: the dense
// kernels accumulate every output element independently in ascending
// column order, whatever the band height, and ×c, +1 follow in the same
// order. An implicit row keeps the +0 out was made with.
func (sh *IndexShard) ScoreRows(ctx context.Context, queries []int, uq *dense.Mat, rows []int) ([]float64, error) {
	if err := sh.checkQuery(queries, uq); err != nil {
		return nil, err
	}
	cols := len(queries)
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: empty row set: %w", ErrParams)
	}
	if len(rows) > maxScoreCells/cols {
		return nil, fmt.Errorf("core: %d rows x %d queries exceeds %d scores per call: %w", len(rows), cols, maxScoreCells, ErrParams)
	}
	for _, t := range rows {
		if !sh.Owns(t) {
			return nil, fmt.Errorf("core: row %d outside shard [%d, %d): %w", t, sh.lo, sh.hi, ErrQuery)
		}
	}
	out := make([]float64, len(rows)*cols)
	var dst dense.Mat
	for i, t := range rows {
		dst = dense.Mat{Rows: 1, Cols: cols, Data: out[i*cols : (i+1)*cols]}
		if at, ok := sh.row(t); ok {
			if err := sh.scan(ctx, uq, at, at+1, 1, &dst, nil); err != nil {
				return nil, err
			}
		}
		for j, q := range queries {
			if t == q {
				dst.Data[j]++
			}
		}
	}
	return out, nil
}

// ColMaxes returns the per-column maxima max|F_{[lo:hi),j}| over the
// shard's rows (an implicit row, all zeros, never sets one). Because a max
// over the full column is the max of the per-shard maxima, a router
// combines these into the monolithic index's ScoreBound and QuantBound,
// bit for bit.
func (sh *IndexShard) ColMaxes() []float64 { return sh.f.ColAbsMax() }

// QuantErrs returns the measured per-column dequantisation errors of a
// quantized shard (nil for the exact tier). They are global per-column
// quantities — identical across every shard cut from one index — so a
// router can feed any shard's copy into QuantBound.
func (sh *IndexShard) QuantErrs() []float64 { return sh.fqerr }

// ScoreBound bounds the magnitude of any one score's product term from
// F's combined per-column maxima: column j of a score sums F_ij·F_qj ≤
// fmax_j², so |c·Σ_j F_ij·F_qj| ≤ c·Σ_j fmax_j², summed from the last
// column down, plus the rounding both compared scores may add
// (roundingSlack). Exposed from core so the router and the Index share one
// formula.
func ScoreBound(c float64, fmax []float64) float64 {
	size := 0.0
	for j := len(fmax) - 1; j >= 0; j-- {
		size += c * fmax[j] * fmax[j]
	}
	return size + roundingSlack(len(fmax), size)
}

// roundingSlack is what floating point may add to the difference of two
// rank-r scores of magnitude at most size — the served one and the one a
// bound holds it to — beyond the exact-arithmetic terms the bound counts:
// each is a length-r dot product, scaled by c and shifted by the identity's
// +1, so each is within (r+2)·u·(size+1) of its exact value, u = 2⁻⁵³.
func roundingSlack(r int, size float64) float64 {
	return float64(2*(r+2)) * 0x1p-53 * (size + 1)
}
