package serve

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"csrplus/internal/fault"
)

// QueryFunc answers one multi-source engine pass: cols[j] is the full
// similarity column of queries[j]. It exists as NewBatcher's seam for
// driving a Batcher without a Server; servers take a RankQueryFunc.
type QueryFunc func(queries []int) ([][]float64, error)

// batchQueryFunc is the batcher's internal engine signature: one
// multi-source pass at a chosen rank (0 = full), honouring ctx so an
// abandoned batch can stop mid-pass.
type batchQueryFunc func(ctx context.Context, queries []int, rank int) ([][]float64, error)

// Batcher coalesces concurrent column requests into multi-source engine
// calls. The paper's complexity bound O(r(m + n(r + |Q|))) makes the
// marginal cost of one more query node tiny next to the per-call
// O(r(m + nr)) floor, so |Q| requests answered by one pass cost far less
// than |Q| passes — the same economics as dynamic batching in inference
// serving. A pending batch flushes when it reaches maxBatch unique nodes,
// when a pool worker is idle (waiting longer would add latency without
// improving throughput), or — with every worker busy — when the linger
// window expires. Duplicate nodes across co-batched requests are computed
// once and shared.
//
// When a degraded rank is configured, a batch runs truncated — trading
// accuracy bounded by the factor tail for an r'/r cost reduction — if any
// of its requests asked for degradation (deadline pressure, decided at
// admission) or the batcher itself is under load pressure at flush time
// (queue depth past the threshold, or requests shed since the last
// batch). The effective rank travels back with every response so callers
// can tag what they served.
type Batcher struct {
	queryFn  batchQueryFunc
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

type request struct {
	ctx     context.Context
	nodes   []int
	degrade bool          // admission-time vote to answer truncated
	out     chan response // buffered(1): abandoned callers never block a worker
}

type response struct {
	cols map[int][]float64
	rank int // effective rank of the answering pass; 0 = full
	err  error
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
	return newBatcher(plain, maxBatch, linger, maxPending, workers, strict, m, 0, 0)
}

// newBatcher is the full-control constructor used by Server: degradedRank
// and overloadDepth wire the graceful-degradation policy (both 0 for
// backends without rank structure).
func newBatcher(queryFn batchQueryFunc, maxBatch int, linger time.Duration, maxPending, workers int, strict bool, m *Metrics, degradedRank int, overloadDepth int64) *Batcher {
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
		queryFn:       queryFn,
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
	cols, _, err := b.ColumnsDegrade(ctx, nodes, false)
	return cols, err
}

// ColumnsDegrade is Columns with a degradation vote: degrade asks the
// answering batch to run at the truncated rank. The returned rank is the
// effective rank of the pass that answered (0 = full) — it can be
// truncated even when this caller did not ask (overload pressure, or a
// co-batched caller's vote), and full when it did (degradation not
// configured on this backend).
func (b *Batcher) ColumnsDegrade(ctx context.Context, nodes []int, degrade bool) (map[int][]float64, int, error) {
	req := &request{ctx: ctx, nodes: nodes, degrade: degrade, out: make(chan response, 1)}

	// The read-lock spans only the non-blocking enqueue, so Close's write
	// lock cannot be acquired mid-send: after Close sets closed, no sender
	// can be inside this critical section when the queue is closed.
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		b.metrics.rejected.Add(1)
		return nil, 0, ErrClosed
	}
	select {
	case b.queue <- req:
		b.mu.RUnlock()
		b.metrics.admitted.Add(1)
		b.metrics.queueDepth.Add(1)
	default:
		b.mu.RUnlock()
		b.metrics.shed.Add(1)
		return nil, 0, ErrOverloaded
	}

	select {
	case resp := <-req.out:
		return resp.cols, resp.rank, resp.err
	case <-ctx.Done():
		b.metrics.expired.Add(1)
		return nil, 0, ctx.Err()
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

// run is the dispatch loop: it accumulates requests, tracking the unique
// node set, and flushes to the worker pool on size or linger triggers.
func (b *Batcher) run() {
	defer close(b.done)
	var (
		pending []*request
		uniq    = make(map[int]struct{})
		timer   *time.Timer
		lingerC <-chan time.Time
	)
	absorb := func(req *request) {
		pending = append(pending, req)
		for _, n := range req.nodes {
			uniq[n] = struct{}{}
		}
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
	for {
		select {
		case req, ok := <-b.queue:
			if !ok {
				flush()
				return
			}
			// A request that would overflow the unique-node bound closes
			// the current batch (it is as full as it can get) and seeds
			// the next one.
			if overflows(req) {
				flush()
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
					if overflows(more) {
						flush()
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
			} else if lingerC == nil {
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

// runBatch executes one coalesced engine call on a pool worker and fans
// the shared column map back out to every caller.
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
	uniq := make(map[int]struct{})
	degrade := false
	for _, req := range live {
		degrade = degrade || req.degrade
		for _, n := range req.nodes {
			uniq[n] = struct{}{}
		}
	}
	nodes := make([]int, 0, len(uniq))
	for n := range uniq {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes) // deterministic engine input regardless of arrival order

	rank := 0
	if b.degradedRank > 0 && (degrade || b.overloaded()) {
		rank = b.degradedRank
		b.metrics.degradedBatches.Add(1)
	}

	b.metrics.batches.Add(1)
	b.metrics.nodes.Add(int64(len(nodes)))
	b.metrics.BatchOccupancy.Observe(float64(len(nodes)))

	ctx, release := batchContext(live)
	err := fault.Hit(fault.SiteBatchQuery) // chaos builds: engine-level latency/failure
	var cols [][]float64
	if err == nil {
		cols, err = b.queryFn(ctx, nodes, rank)
	}
	release()
	if err != nil {
		for _, req := range live {
			req.out <- response{err: err}
		}
		return
	}
	byNode := make(map[int][]float64, len(nodes))
	for j, n := range nodes {
		byNode[n] = cols[j]
	}
	for _, req := range live {
		req.out <- response{cols: byNode, rank: rank}
	}
}
