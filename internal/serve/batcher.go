package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csrplus/internal/dense"
	"csrplus/internal/fault"
	"csrplus/internal/topk"
)

// QueryFunc answers one multi-source engine pass: cols[j] is the full
// similarity column of queries[j]. It exists as NewBatcher's seam for
// driving a Batcher without a Server; servers take a RankQueryFunc.
type QueryFunc func(queries []int) ([][]float64, error)

// batchQueryFunc is the batcher's internal engine signature: one
// multi-source pass at a chosen rank (0 = full), honouring ctx so an
// abandoned batch can stop mid-pass.
type batchQueryFunc func(ctx context.Context, queries []int, rank int) ([][]float64, error)

// engine is what a generation's pool workers call, and the only thing
// that differs between a column generation and a direct one: everything
// before the call (admission, shedding, the pressure rule) and after it
// (tagging, drain) is shared.
type engine struct {
	n       int             // rows of a column: a column pass materialises n x |Q|
	columns batchQueryFunc  // one coalesced multi-source pass; nil = no column path
	topk    DirectTopKFunc  // non-nil: a top-k request is its own engine call
	scores  DirectScoreFunc // non-nil: a targeted-score request is its own engine call
}

// maxColumnBlockBytes caps the n x |Q| block one column request sizes by itself (MaxBatch bounds coalescing).
const maxColumnBlockBytes = 256 << 20

// Batcher is one generation's admission queue, dispatch loop and worker
// pool. Requests whose answer is read out of similarity columns are
// coalesced into multi-source engine calls: the paper's complexity bound
// O(r(m + n(r + |Q|))) makes the marginal cost of one more query node
// tiny next to the per-call O(r(m + nr)) floor, so |Q| requests answered
// by one pass cost far less than |Q| passes — the same economics as
// dynamic batching in inference serving. A pending batch flushes when it
// reaches maxBatch unique nodes, when a pool worker is idle (waiting
// longer would add latency without improving throughput), or — with
// every worker busy — when the linger window expires. Duplicate nodes
// across co-batched requests are computed once and shared. A request the
// engine answers directly (top-k or targeted scores that never
// materialise n x |Q|) has nothing to coalesce: the dispatch loop hands
// it to the pool as a batch of one.
//
// When a degraded rank is configured, a batch runs truncated — trading
// accuracy bounded by the factor tail for an r'/r cost reduction — if any
// of its requests asked for degradation (deadline pressure, decided at
// admission) or the batcher itself is under load pressure at flush time
// (queue depth past the threshold, or requests shed since the last
// batch). The effective rank travels back with every response so callers
// can tag what they served.
type Batcher struct {
	eng      engine
	maxBatch int
	linger   time.Duration
	strict   bool
	metrics  *Metrics
	pool     *Pool

	degradedRank  int   // truncated rank under pressure; 0 = never degrade
	overloadDepth int64 // queue depth that counts as pressure; 0 = disabled
	prevShed      atomic.Int64

	mu     sync.RWMutex // guards closed vs. queue sends
	closed bool
	queue  chan *request
	done   chan struct{} // dispatch loop exited
	once   sync.Once
}

// request is one caller's ask. k > 0 marks a top-k request and targets a
// targeted-score one; either is answered from columns unless the
// generation's engine has the matching direct func.
type request struct {
	ctx     context.Context
	nodes   []int
	k       int
	targets []int
	degrade bool // admission-time vote to answer truncated
	// direct, set at admission, is the engine call that answers this
	// request on its own; nil when it coalesces into a column pass.
	direct func(ctx context.Context, rank int) response
	out    chan response // buffered(1): abandoned callers never block a worker
}

// response carries whichever shape the engine call produced: the batch's
// shared columns, a direct top-k list with its provenance, or a direct
// |nodes| x |targets| score matrix.
type response struct {
	cols   map[int][]float64
	items  []topk.Item
	prov   TopKProvenance
	scores *dense.Mat
	rank   int // effective rank of the answering pass; 0 = full
	err    error
}

// direct picks req's own engine call, if the generation has one.
func (e engine) direct(req *request) func(context.Context, int) response {
	switch {
	case req.k > 0 && e.topk != nil:
		return func(ctx context.Context, rank int) response {
			items, prov, err := e.topk(ctx, req.nodes, req.k, rank)
			return response{items: items, prov: prov, err: err}
		}
	case len(req.targets) > 0 && e.scores != nil:
		return func(ctx context.Context, rank int) response {
			m, err := e.scores(ctx, req.nodes, req.targets, rank)
			return response{scores: m, err: err}
		}
	}
	return nil
}

// NewBatcher starts the dispatch loop and worker pool over a plain
// QueryFunc engine (always full rank; the engine is only consulted after
// a context check). maxBatch is the most unique nodes per engine call — a
// request that would push a batch past it is left to seed the next batch,
// so the bound holds whenever no single request alone exceeds it
// (requests are indivisible: one whose own node set tops maxBatch forms
// its own oversized batch). linger is the longest a request waits for
// co-batching (0 batches only what is already queued), maxPending the
// admission bound beyond which requests are shed, workers the concurrent
// engine calls. strict disables the idle-worker eager flush: partial
// batches always wait for the size or linger trigger, maximising batch
// occupancy (throughput) at the cost of light-load latency.
func NewBatcher(queryFn QueryFunc, maxBatch int, linger time.Duration, maxPending, workers int, strict bool, m *Metrics) *Batcher {
	plain := func(ctx context.Context, queries []int, _ int) ([][]float64, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return queryFn(queries)
	}
	return newBatcher(engine{columns: plain}, maxBatch, linger, maxPending, workers, strict, m, 0, 0)
}

// newBatcher is the full-control constructor used by Server: degradedRank
// and overloadDepth wire the graceful-degradation policy (both 0 for
// backends without rank structure).
func newBatcher(eng engine, maxBatch int, linger time.Duration, maxPending, workers int, strict bool, m *Metrics, degradedRank int, overloadDepth int64) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if maxPending < 1 {
		maxPending = 1
	}
	if m == nil {
		m = NewMetrics()
	}
	b := &Batcher{
		eng:           eng,
		maxBatch:      maxBatch,
		linger:        linger,
		strict:        strict,
		metrics:       m,
		pool:          NewPool(workers),
		degradedRank:  degradedRank,
		overloadDepth: overloadDepth,
		queue:         make(chan *request, maxPending),
		done:          make(chan struct{}),
	}
	go b.run()
	return b
}

// Columns returns the similarity column of every requested node, batched
// with whatever else is in flight. The returned map is shared read-only
// across co-batched callers. Fails fast with ErrOverloaded when the
// admission queue is full, ErrClosed after Close, and ctx.Err() when the
// caller's deadline expires before the batch completes.
func (b *Batcher) Columns(ctx context.Context, nodes []int) (map[int][]float64, error) {
	resp, err := b.do(&request{ctx: ctx, nodes: nodes})
	return resp.cols, err
}

// do admits req and waits for its answer. The response's rank is the
// effective rank of the pass that answered (0 = full) — it can be
// truncated even when this caller did not vote for it (overload
// pressure, or a co-batched caller's vote), and full when it did
// (degradation not configured on this generation). A request the queue
// refused (ErrClosed, ErrOverloaded, no engine for it) was never
// enqueued, so the caller may offer the same req to another batcher.
func (b *Batcher) do(req *request) (response, error) {
	req.out = make(chan response, 1)
	if req.direct = b.eng.direct(req); req.direct == nil {
		// Distinct nodes size the block, and there are at most n of them.
		block := int64(min(len(req.nodes), b.eng.n)) * int64(b.eng.n) * 8
		switch {
		case b.eng.columns == nil:
			b.metrics.rejected.Add(1)
			return response{}, fmt.Errorf("%w: this generation's engine has no column path to answer the request from", ErrBadRequest)
		case block > maxColumnBlockBytes:
			b.metrics.rejected.Add(1)
			return response{}, fmt.Errorf("%w: %d nodes x %d rows is a %d MiB column block, over the %d MiB one request may ask for", ErrBadRequest, len(req.nodes), b.eng.n, block>>20, maxColumnBlockBytes>>20)
		}
	}

	// The read-lock spans only the non-blocking enqueue, so Close's write
	// lock cannot be acquired mid-send: after Close sets closed, no sender
	// can be inside this critical section when the queue is closed.
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		b.metrics.rejected.Add(1)
		return response{}, ErrClosed
	}
	select {
	case b.queue <- req:
		b.mu.RUnlock()
		b.metrics.admitted.Add(1)
		b.metrics.queueDepth.Add(1)
	default:
		b.mu.RUnlock()
		b.metrics.shed.Add(1)
		return response{}, ErrOverloaded
	}

	select {
	case resp := <-req.out:
		return resp, resp.err
	case <-req.ctx.Done():
		b.metrics.expired.Add(1)
		return response{}, req.ctx.Err()
	}
}

// Close stops admission, flushes every pending request, waits for
// in-flight batches to finish, and returns. Idempotent.
func (b *Batcher) Close() {
	b.once.Do(func() {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		close(b.queue)
		<-b.done
		b.pool.Close()
	})
}

// run is the dispatch loop: it hands direct requests straight to the
// worker pool, accumulates column requests, tracking the unique node
// set, and flushes those to the pool on size or linger triggers.
func (b *Batcher) run() {
	defer close(b.done)
	var (
		pending []*request
		uniq    = make(map[int]struct{})
		timer   *time.Timer
		lingerC <-chan time.Time
	)
	flush := func() {
		if len(pending) == 0 {
			return
		}
		batch := pending
		pending = nil
		uniq = make(map[int]struct{})
		if timer != nil {
			timer.Stop()
		}
		lingerC = nil
		b.pool.Submit(func() { b.runBatch(batch) })
	}
	// overflows reports whether absorbing req would push the batch past
	// maxBatch unique nodes. A request is indivisible, so the bound can
	// only be respected by leaving req for the next batch — except when
	// the batch is empty, where a single oversized request necessarily
	// forms its own (oversized) batch.
	overflows := func(req *request) bool {
		if len(pending) == 0 {
			return false
		}
		fresh := 0
		for _, n := range req.nodes {
			if _, ok := uniq[n]; !ok {
				fresh++
			}
		}
		return len(uniq)+fresh > b.maxBatch
	}
	absorb := func(req *request) {
		if req.direct != nil {
			b.pool.Submit(func() { b.runBatch([]*request{req}) })
			return
		}
		// A request that would overflow the unique-node bound closes the
		// current batch (it is as full as it can get) and seeds the next.
		if overflows(req) {
			flush()
		}
		pending = append(pending, req)
		for _, n := range req.nodes {
			uniq[n] = struct{}{}
		}
	}
	for {
		select {
		case req, ok := <-b.queue:
			if !ok {
				flush()
				return
			}
			absorb(req)
			// Greedily absorb whatever is already queued: back-to-back
			// arrivals batch together even with linger = 0.
		drain:
			for len(uniq) < b.maxBatch {
				select {
				case more, ok := <-b.queue:
					if !ok {
						flush()
						return
					}
					absorb(more)
				default:
					break drain
				}
			}
			// Flush now if the batch is full, lingering is disabled, or
			// (outside strict mode) a worker would otherwise sit idle —
			// holding a partial batch only pays when every worker is busy
			// anyway. Otherwise arm the linger timer as the upper bound
			// on queueing delay.
			if len(uniq) >= b.maxBatch || b.linger <= 0 || (!b.strict && b.pool.Idle()) {
				flush()
			} else if lingerC == nil && len(pending) > 0 {
				timer = time.NewTimer(b.linger)
				lingerC = timer.C
			}
		case <-lingerC:
			lingerC = nil
			flush()
		case <-b.pool.Freed():
			// A worker came free; hand it the partial batch immediately
			// (strict mode keeps waiting for the size/linger trigger).
			if !b.strict && len(pending) > 0 && b.pool.Idle() {
				flush()
			}
		}
	}
}

// overloaded reports whether the batcher is under enough pressure that
// answering cheap beats answering exact: the admission queue is past the
// configured depth, or requests were shed since the last batch (the queue
// hit its hard bound — the strongest possible signal).
func (b *Batcher) overloaded() bool {
	if b.overloadDepth <= 0 {
		return false
	}
	shed := b.metrics.shed.Load()
	if b.prevShed.Swap(shed) < shed {
		return true
	}
	return b.metrics.queueDepth.Load() > b.overloadDepth
}

// batchContext derives a context that is live while at least one of the
// batch's callers still is: each request's context decrements a counter
// as it expires, and the last one cancels the batch. The engine pass
// checks it between row bands, so a batch every caller has abandoned
// releases its pool worker mid-pass instead of computing into the void.
func batchContext(reqs []*request) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	remaining := int64(len(reqs))
	var counted atomic.Int64
	stops := make([]func() bool, 0, len(reqs))
	for _, req := range reqs {
		stops = append(stops, context.AfterFunc(req.ctx, func() {
			if counted.Add(1) == remaining {
				cancel()
			}
		}))
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// runBatch executes one engine call on a pool worker — a direct
// request's own, or one coalesced column pass whose shared column map
// fans back out to every caller.
func (b *Batcher) runBatch(reqs []*request) {
	defer b.metrics.queueDepth.Add(-int64(len(reqs)))

	// Skip requests whose caller has already given up; don't waste an
	// engine pass (or widen this one) on their nodes.
	live := reqs[:0]
	for _, req := range reqs {
		if req.ctx.Err() != nil {
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	direct := live[0].direct // a direct request is always a batch of one
	nodes := live[0].nodes   // ... and its engine sees the node list as asked
	degrade := live[0].degrade
	if direct == nil {
		uniq := make(map[int]struct{})
		for _, req := range live {
			degrade = degrade || req.degrade
			for _, n := range req.nodes {
				uniq[n] = struct{}{}
			}
		}
		nodes = make([]int, 0, len(uniq))
		for n := range uniq {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes) // deterministic engine input regardless of arrival order
	}

	rank := 0
	if b.degradedRank > 0 && (degrade || b.overloaded()) {
		rank = b.degradedRank
		b.metrics.degradedBatches.Add(1)
	}

	b.metrics.batches.Add(1)
	b.metrics.nodes.Add(int64(len(nodes)))
	b.metrics.BatchOccupancy.Observe(float64(len(nodes)))

	ctx, release := batchContext(live)
	var resp response
	switch err := fault.Hit(fault.SiteBatchQuery); { // chaos builds: engine-level latency/failure
	case err != nil:
		resp.err = err
	case direct != nil:
		resp = direct(ctx, rank)
	default:
		resp = b.columns(ctx, nodes, rank)
	}
	release()
	resp.rank = rank
	for _, req := range live {
		req.out <- resp
	}
}

// columns runs one multi-source column pass and keys its columns by node.
func (b *Batcher) columns(ctx context.Context, nodes []int, rank int) response {
	cols, err := b.eng.columns(ctx, nodes, rank)
	if err != nil {
		return response{err: err}
	}
	byNode := make(map[int][]float64, len(nodes))
	for j, n := range nodes {
		byNode[n] = cols[j]
	}
	return response{cols: byNode}
}
