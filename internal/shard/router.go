package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/serve"
	"csrplus/internal/topk"
)

// Router fans multi-source queries out to K shard slots and assembles
// exact global answers. It is stateless per request — every fan-out leg
// resolves its slot's current generation once at entry and computes
// entirely on that snapshot — so it is safe for concurrent use, including
// concurrently with a slot's swap (Local.Swap, a remote worker's roll). The
// router is csrserver's one serving backend — a monolithic index is the
// K=1 router — with admission, missing-shard tagging and generation swaps on top:
// TopKTagged answers /topk and Scores answers /similarity, in every mode,
// over local slots and remote ones (see internal/wire) alike. The two are
// one skeleton — admit (validate, ctx, gather the query rows of F), fan a
// leg out to every slot, fold the per-slot errors — over the two consumers
// of core's one phase-II scan that never touch a whole column
// (PartialTopK, ScoreRows). The n x |Q| block itself is the library's
// (core.Index.QueryRankInto), not the router's.
type Router struct {
	n    int
	rank int
	c    float64
	plan Plan

	slots []Slot

	// bound caches the global truncation-bound tail, keyed by the shard
	// generation vector that produced it; a slot's swap invalidates it by
	// changing a generation number. The hit-path comparison reads each
	// slot's generation directly against the cached vector — no
	// allocation per query (this sits on the degraded-tagging hot path,
	// and per-request RPC amplifies it in the wire deployment).
	bound atomic.Pointer[boundEntry]
}

type boundEntry struct {
	gens  []uint64
	score float64 // core.ScoreBound over the combined column maxima
	quant float64
}

// NewRouter assembles a router over in-process shards, which must be
// ordered by node range, contiguous from 0 to n, and cut from the same
// index family (equal global n, rank, and damping). Shard boundaries
// become the router's immutable Plan; a slot's swap replaces its factors
// but never its range.
func NewRouter(shards []*core.IndexShard) (*Router, error) {
	slots := make([]Slot, len(shards))
	for s, sh := range shards {
		slots[s] = NewLocal(sh)
	}
	return NewRouterSlots(slots)
}

// NewRouterSlots assembles a router over already-constructed slots (local
// or remote), validating the same contiguity and shape invariants as
// NewRouter. Remote slots must have resolved their metadata before
// assembly (wire.Dial does).
func NewRouterSlots(slots []Slot) (*Router, error) {
	if len(slots) == 0 {
		return nil, fmt.Errorf("%w: no shards", ErrPlan)
	}
	n, rank, c := slots[0].N(), slots[0].Rank(), slots[0].Damping()
	bounds := make([]int, 0, len(slots)+1)
	bounds = append(bounds, 0)
	for s, sl := range slots {
		if sl.N() != n || sl.Rank() != rank || sl.Damping() != c {
			return nil, fmt.Errorf("%w: shard %d has n=%d r=%d c=%v, shard 0 has n=%d r=%d c=%v",
				ErrShard, s, sl.N(), sl.Rank(), sl.Damping(), n, rank, c)
		}
		if sl.Lo() != bounds[s] {
			return nil, fmt.Errorf("%w: shard %d starts at %d, want %d (gap or overlap)", ErrShard, s, sl.Lo(), bounds[s])
		}
		bounds = append(bounds, sl.Hi())
	}
	if bounds[len(bounds)-1] != n {
		return nil, fmt.Errorf("%w: shards end at %d, want %d", ErrShard, bounds[len(bounds)-1], n)
	}
	plan, err := NewPlan(bounds)
	if err != nil {
		return nil, err
	}
	return &Router{n: n, rank: rank, c: c, plan: plan, slots: slots}, nil
}

// Split cuts ix into k near-equal shards (SplitEven boundaries). The
// shards share ix's backing arrays.
func Split(ix *core.Index, k int) ([]*core.IndexShard, error) {
	plan, err := SplitEven(ix.N(), k)
	if err != nil {
		return nil, err
	}
	shards := make([]*core.IndexShard, plan.K())
	for s := range shards {
		lo, hi := plan.Range(s)
		if shards[s], err = ix.Shard(lo, hi); err != nil {
			return nil, err
		}
	}
	return shards, nil
}

// PublishSnapshots cuts ix into k even shards (Split) and publishes shard s
// as the next generation of core.ShardDir(root, s) — the directory the
// worker of slot s boots and reloads from — then prunes each directory to
// core.KeepSnapshots generations. k is the cluster's size and must not
// exceed n: a publisher that quietly wrote fewer directories than the
// address list has workers would leave some without a shard. A failure
// part-way leaves the earlier directories on the new generation, which a
// re-run converges.
func PublishSnapshots(root string, ix *core.Index, k int) error {
	if k > ix.N() {
		return fmt.Errorf("%w: %d shards of %d nodes", ErrPlan, k, ix.N())
	}
	shards, err := Split(ix, k)
	if err != nil {
		return err
	}
	for s, sh := range shards {
		dir := core.ShardDir(root, s)
		if _, _, err := core.WriteShardSnapshot(dir, sh); err != nil {
			return err
		}
		if _, err := core.PruneSnapshots(dir, core.KeepSnapshots); err != nil {
			return err
		}
	}
	return nil
}

// NewRouterFromIndex is NewRouter over an even k-way split of ix.
func NewRouterFromIndex(ix *core.Index, k int) (*Router, error) {
	shards, err := Split(ix, k)
	if err != nil {
		return nil, err
	}
	return NewRouter(shards)
}

// N returns the global node count.
func (r *Router) N() int { return r.n }

// Rank returns the SVD rank of the sharded index.
func (r *Router) Rank() int { return r.rank }

// K returns the shard count.
func (r *Router) K() int { return r.plan.K() }

// Plan returns the router's partition plan.
func (r *Router) Plan() Plan { return r.plan }

// ShardStatus describes one shard slot for /stats and /admin/index.
type ShardStatus struct {
	Shard      int    `json:"shard"`
	Lo         int    `json:"lo"`
	Hi         int    `json:"hi"`
	Generation uint64 `json:"generation"`
	Bytes      int64  `json:"bytes"`
	// Stored is how many of the slot's Hi-Lo nodes have factor rows stored.
	Stored int `json:"rows_stored"`
	// Build is the id of the index build the slot's rows come from, as
	// 16 hex digits.
	Build string `json:"build"`
	// Mapped reports factors served from a memory-mapped snapshot file, not
	// from the heap. Set by whoever owns the index behind the slot: a slot
	// itself sees rows either way.
	Mapped bool `json:"mapped"`
}

// Status reports every shard slot's range, generation, resident bytes and
// stored rows.
func (r *Router) Status() []ShardStatus {
	out := make([]ShardStatus, r.K())
	for s, sl := range r.slots {
		out[s] = ShardStatus{Shard: s, Lo: sl.Lo(), Hi: sl.Hi(), Generation: sl.Generation(), Bytes: sl.Bytes(), Stored: sl.Stored(), Build: fmt.Sprintf("%016x", sl.Build())}
	}
	return out
}

// Generations returns the per-shard generation vector.
func (r *Router) Generations() []uint64 {
	gens := make([]uint64, r.K())
	for s, sl := range r.slots {
		gens[s] = sl.Generation()
	}
	return gens
}

// validate checks one id list of a request; what names it in the error:
// "query" for the query set, "target" for the rows Scores is asked for.
func (r *Router) validate(what string, ids []int) error {
	if len(ids) == 0 {
		return fmt.Errorf("shard: empty %s set: %w", what, core.ErrParams)
	}
	for _, id := range ids {
		if id < 0 || id >= r.n {
			return fmt.Errorf("shard: %s node %d not in [0, %d): %w", what, id, r.n, core.ErrQuery)
		}
	}
	return nil
}

// admit is the entry topK and Scores share: it validates the query ids,
// refuses a context that is already done and gathers the query rows of F.
// The two then differ only in the leg they fan out to the slots and in how
// they fold its per-slot errors.
func (r *Router) admit(ctx context.Context, queries []int) (*dense.Mat, error) {
	if err := r.validate("query", queries); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.gatherF(ctx, queries)
}

// gatherF assembles the |Q| x r broadcast matrix of the query nodes' F
// rows from their owner slots — the only cross-shard data a query needs.
// The copied values are the exact float64s of the monolithic F, so the
// downstream dot products are bitwise those of the single-engine path. A
// failed owner fetch fails the query: a query node whose shard is down
// cannot be degraded around, because every other shard's partial depends
// on its F row.
func (r *Router) gatherF(ctx context.Context, queries []int) (*dense.Mat, error) {
	uq := dense.NewMat(len(queries), r.rank)
	// Positions grouped by owner, so each owner answers one batched
	// gather per query instead of one RPC per query node.
	byOwner := make([][]int, r.K())
	for j, q := range queries {
		s := r.plan.Owner(q)
		byOwner[s] = append(byOwner[s], j)
	}
	fetch := func(s int) error {
		js := byOwner[s]
		if len(js) == 0 {
			return nil
		}
		nodes := make([]int, len(js))
		for i, j := range js {
			nodes[i] = queries[j]
		}
		rows, err := r.slots[s].URows(ctx, nodes)
		if err != nil {
			return fmt.Errorf("shard: gathering F rows from shard %d: %w", s, err)
		}
		if !rows.IsShape(len(js), r.rank) {
			return fmt.Errorf("%w: shard %d returned %dx%d F rows, want %dx%d", ErrShard, s, rows.Rows, rows.Cols, len(js), r.rank)
		}
		for i, j := range js {
			copy(uq.Row(j), rows.Row(i))
		}
		return nil
	}
	if err := errFirst(r.fanout(fetch)); err != nil {
		return nil, err
	}
	return uq, nil
}

// fanout runs body for every slot and returns the per-slot errors: inline
// at K = 1, and at K > 1 on one goroutine per slot, local or remote, so
// that legs waiting on the network overlap instead of stacking their
// latencies. A body with nothing to do for a slot returns nil at once.
func (r *Router) fanout(body func(s int) error) []error {
	errs := make([]error, r.K())
	if r.K() == 1 {
		errs[0] = body(0)
		return errs
	}
	var wg sync.WaitGroup
	for s := range r.slots {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = body(s)
		}(s)
	}
	wg.Wait()
	return errs
}

// TopK returns the exact global top-k for a query set via scatter–gather:
// every shard selects the top-k of the nodes it owns
// (core.IndexShard.PartialTopK), and the k best of the union is the
// answer. A multi-source set ranks by summed similarity (duplicate queries
// weigh double) with every query node excluded, computed top-k-first:
// each shard scores a cache-sized band of its rows against the gathered
// query rows, sums the band's columns in query order and streams the sums
// into a bounded selector — nothing of length n, let alone n x |Q|, is
// ever allocated. Answers are bitwise csrplus.Engine.TopK for a single
// query (its own column, itself excluded) and bitwise
// csrplus.Engine.TopKMulti (the materialised columns, summed) for a set,
// at every shard count and tier. Any slot failure fails the query; for
// the degrading variant a wire deployment serves from, see TopKTagged.
func (r *Router) TopK(ctx context.Context, queries []int, k int) ([]topk.Item, error) {
	res, err := r.topK(ctx, queries, k, false) // the zero result on error
	return res.Items, err
}

// TopKResult is TopKTagged's answer plus its provenance.
type TopKResult struct {
	// Items is the merged top-k, exact over every shard that answered.
	Items []topk.Item
	// Missing counts slots whose partial lists were unavailable (worker
	// down, breaker open, RPC failed after retries). 0 means the answer
	// is the exact global top-k.
	Missing int
	// ErrorBound, when Missing > 0, bounds the aggregate similarity any
	// omitted candidate could have had: |Q| · (c·Σ_j fmax_j² +
	// quant). Scores of returned items are still exact (up to the usual
	// quantisation bound); the uncertainty is in set membership.
	ErrorBound float64
}

// TopKTagged is TopK with graceful shard-failure degradation: a slot
// whose partial list cannot be fetched (after the wire client's retries)
// is skipped, the merge runs over the shards that answered,
// and the result is tagged with how many shards are missing plus a bound
// on the aggregate score any omitted candidate could have carried — the
// provenance the serving layer folds into its degraded/error_bound
// response tagging. Context cancellation and invalid queries still fail
// the whole query, as does every slot failing at once (nothing answered)
// or a failed F-row gather (a query node's own shard being down poisons
// every partial, so there is nothing exact to serve). The int is ignored;
// it stays only because the benchmark harness (csrload) passes it (ROADMAP
// item 1 Step B).
func (r *Router) TopKTagged(ctx context.Context, queries []int, k, _ int) (TopKResult, error) {
	return r.topK(ctx, queries, k, true)
}

// Ranked is the serving generation over r: TopKTagged answers each top-k
// with its missing-shard provenance, Scores each targeted score, and
// TruncationBound reports the bound.
func (r *Router) Ranked() serve.Ranked {
	return serve.Ranked{
		N: r.N(), Bound: r.TruncationBound, Scores: r.Scores,
		TopK: func(ctx context.Context, queries []int, k, _ int) ([]topk.Item, serve.TopKProvenance, error) {
			res, err := r.TopKTagged(ctx, queries, k, 0)
			return res.Items, serve.TopKProvenance{MissingShards: res.Missing, ErrorBound: res.ErrorBound}, err
		},
	}
}

func (r *Router) topK(ctx context.Context, queries []int, k int, degrade bool) (TopKResult, error) {
	if k <= 0 {
		return TopKResult{}, r.validate("query", queries)
	}
	uq, err := r.admit(ctx, queries)
	if err != nil {
		return TopKResult{}, err
	}
	cols := len(queries)
	lists := make([][]topk.Item, r.K())
	errs := r.fanout(func(s int) error {
		items, err := r.slots[s].PartialTopK(ctx, queries, uq, k, 0)
		if err != nil {
			return err
		}
		lists[s] = items
		return nil
	})
	missing := 0
	for s, err := range errs {
		if err == nil {
			continue
		}
		if !degrade || ctx.Err() != nil || !errors.Is(err, ErrSlotDown) && !isTransport(err) {
			return TopKResult{}, fmt.Errorf("shard: partial top-k from shard %d: %w", s, err)
		}
		missing++
		lists[s] = nil
	}
	if missing == r.K() {
		return TopKResult{}, fmt.Errorf("shard: all %d shards unavailable: %w", r.K(), errFirst(errs))
	}
	res := TopKResult{Items: topk.Merge(k, lists...), Missing: missing}
	if missing > 0 {
		res.ErrorBound = float64(cols) * r.MissingShardBound()
	}
	return res, nil
}

// ErrSlotDown marks a slot failure that degradation may skip: the wire
// client wraps transport errors, breaker-open fast failures, and worker
// 5xx responses in it, so the router can tell "this shard cannot answer
// right now" from "this query is malformed".
var ErrSlotDown = errors.New("shard: slot unavailable")

// isTransport reports whether err looks like a slot-availability failure
// rather than a caller error. Anything that is not a validation error
// from this package or core counts: remote slots wrap their failures in
// ErrSlotDown (handled before this), and an unexpected decode error from
// a half-dead worker should degrade, not fail the query.
func isTransport(err error) bool {
	return !errors.Is(err, core.ErrParams) && !errors.Is(err, core.ErrQuery) && !errors.Is(err, ErrShard) && !errors.Is(err, ErrPlan)
}

func errFirst(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Scores answers targeted (query, target) pairs without materialising any
// column: each target's owner shard scores just that row, bitwise-equal
// to the same element of the full column matrix (the kernels accumulate
// each output element independently in ascending column order). The
// result is |Q| x |T|, element (i, j) scoring queries[i] against
// targets[j]. Any owner failure fails the call — a targeted score has no
// degraded form, unlike top-k set membership.
func (r *Router) Scores(ctx context.Context, queries, targets []int) (*dense.Mat, error) {
	if err := r.validate("target", targets); err != nil {
		return nil, err
	}
	uq, err := r.admit(ctx, queries)
	if err != nil {
		return nil, err
	}
	byOwner := make([][]int, r.K())
	for j, t := range targets {
		s := r.plan.Owner(t)
		byOwner[s] = append(byOwner[s], j)
	}
	out := dense.NewMat(len(queries), len(targets))
	errs := r.fanout(func(s int) error {
		js := byOwner[s]
		if len(js) == 0 {
			return nil
		}
		rows := make([]int, len(js))
		for i, j := range js {
			rows[i] = targets[j]
		}
		scores, err := r.slots[s].ScoreRows(ctx, queries, uq, rows)
		if err != nil {
			return fmt.Errorf("shard: scoring rows on shard %d: %w", s, err)
		}
		if len(scores) != len(rows)*len(queries) {
			return fmt.Errorf("%w: shard %d returned %d scores, want %d", ErrShard, s, len(scores), len(rows)*len(queries))
		}
		for i, j := range js {
			for qi := range queries {
				out.Set(qi, j, scores[i*len(queries)+qi])
			}
		}
		return nil
	})
	if err := errFirst(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// TruncationBound bounds the entrywise error of an answer, bitwise-equal
// to core.Index.TruncationBound on the unsharded index: the quantisation
// term (core.QuantBound, shared code) over the per-shard column maxima
// combined — a column maximum over all rows is the maximum of the
// per-shard maxima — plus the Gram clamp charge. The result is cached
// against the shard generation vector, so it is recomputed only after a
// swap; the hit path allocates nothing. If a remote slot's bound terms
// cannot be refreshed after a roll, the previous entry keeps answering
// (conservative for the usual same-tier roll) until a refresh succeeds.
// The int is ignored; it stays only because the benchmark harness
// (csrload) passes serve.Ranked.Bound (ROADMAP item 1 Step B).
func (r *Router) TruncationBound(_ int) float64 {
	e := r.bestBound()
	if e == nil {
		return 0
	}
	return e.quant
}

// MissingShardBound returns the aggregate per-query score bound used to
// inflate error_bound when a shard's partial top-k list is missing: no
// single similarity can exceed c·Σ_j fmax_j² plus the quantisation and
// clamp terms (query nodes, the only +1 diagonal entries, are excluded
// from top-k), so an omitted candidate's |Q|-query aggregate is bounded by
// |Q| times this value.
func (r *Router) MissingShardBound() float64 {
	e := r.bestBound()
	if e == nil {
		return 0
	}
	return e.score + e.quant
}

// PrimeBound eagerly builds the bound cache, failing if any slot's bound
// terms are unreachable. Wire routers call it at assembly time so that
// degraded responses always have a cached bound to inflate from, even if
// the worker that would supply fresh terms is the one that just died.
func (r *Router) PrimeBound() error {
	ne, err := r.rebuildBound()
	if err != nil {
		return err
	}
	r.bound.Store(ne)
	return nil
}

// bestBound returns the cached bound entry, rebuilding it when the
// generation vector moved. The comparison reads each slot's generation
// against the cached vector directly — no per-call allocation.
func (r *Router) bestBound() *boundEntry {
	e := r.bound.Load()
	if e != nil && r.gensMatch(e.gens) {
		return e
	}
	ne, err := r.rebuildBound()
	if err != nil {
		// Refresh failed (a remote slot is unreachable mid-roll): keep
		// answering from the stale entry rather than dropping the bound.
		return e
	}
	r.bound.Store(ne)
	return ne
}

func (r *Router) gensMatch(gens []uint64) bool {
	if len(gens) != len(r.slots) {
		return false
	}
	for s, sl := range r.slots {
		if sl.Generation() != gens[s] {
			return false
		}
	}
	return true
}

// rebuildBound fetches every slot's bound terms in one fan-out and folds
// them.
func (r *Router) rebuildBound() (*boundEntry, error) {
	// Gens are captured before the term fetch: if a slot rolls mid-fetch,
	// the entry lands keyed to the pre-roll vector and the next call
	// refreshes again — transiently stale, never wedged.
	gens := r.Generations()
	terms := make([]BoundTerms, r.K())
	errs := r.fanout(func(s int) error {
		t, err := r.slots[s].BoundTerms(context.Background())
		if err != nil {
			return fmt.Errorf("shard: bound terms from shard %d: %w", s, err)
		}
		terms[s] = t
		return nil
	})
	if err := errFirst(errs); err != nil {
		return nil, err
	}
	fmax := make([]float64, r.rank)
	var ferr []float64
	clamp := 0.0
	for s, t := range terms {
		if len(t.FMax) != r.rank {
			return nil, fmt.Errorf("%w: shard %d returned %d bound columns, want %d", ErrShard, s, len(t.FMax), r.rank)
		}
		for j, v := range t.FMax {
			fmax[j] = max(fmax[j], v)
		}
		// The dequantisation errors are global per-column vectors,
		// identical across shards cut from one index; any shard's
		// copy recomposes the monolithic quant term. Mid-roll, with
		// exact and quantized generations mixed, including the term
		// over-states the error for exact rows — conservative, never
		// under-stated. The clamp charge is global too.
		if t.FErr != nil {
			ferr = t.FErr
		}
		clamp = max(clamp, t.Clamp)
	}
	return &boundEntry{
		gens:  gens,
		score: core.ScoreBound(r.c, fmax),
		quant: core.QuantBound(r.c, fmax, ferr) + clamp,
	}, nil
}
