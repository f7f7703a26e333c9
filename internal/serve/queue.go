package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"csrplus/internal/dense"
	"csrplus/internal/fault"
	"csrplus/internal/topk"
)

// backend is one engine generation: its engine calls, node count, rank
// structure and drift (the Ranked it was installed from), and its bounded
// request queue drained by Workers goroutines. Immutable once installed
// apart from the queue's lifecycle — a reload builds a fresh backend and
// swaps the pointer.
//
// When a degraded rank is configured, a request's engine call runs
// truncated — trading accuracy bounded by the factor tail for an r'/r
// cost cut — if the request asked for it (deadline pressure, decided at
// admission) or the generation is under load pressure when a worker picks
// the request up (queue depth past the threshold, or requests shed since
// the last call). The effective rank travels back with the response so
// the caller can tag what it served.
type backend struct {
	Ranked // Direct: TopK and Scores are the engine calls; Bound is non-nil

	metrics       *Metrics
	degradedRank  int   // truncated rank under pressure; 0 = never degrade
	overloadDepth int64 // queue depth that counts as pressure; 0 = disabled
	prevShed      atomic.Int64

	mu      sync.RWMutex // guards closed vs. queue sends
	closed  bool
	queue   chan *request // buffered to MaxPending: the buffer is the admission bound
	workers sync.WaitGroup
}

// request is one caller's ask: a top-k when k > 0, targeted scores
// otherwise.
type request struct {
	ctx     context.Context
	nodes   []int
	k       int
	targets []int
	degrade bool          // admission-time vote to answer truncated
	out     chan response // buffered(1): an abandoned caller never blocks a worker
}

// response is what the request's engine call produced: a top-k list with
// its provenance, or a |nodes| x |targets| score matrix.
type response struct {
	items  []topk.Item
	prov   TopKProvenance
	scores *dense.Mat
	rank   int     // effective rank of the answering call; 0 = full
	bound  float64 // Bound(rank), taken while the worker still holds the generation
	err    error
}

// newBackend starts e's workers over a queue of maxPending requests;
// degradedRank and overloadDepth wire the graceful-degradation policy
// (both 0 for generations without rank structure).
func newBackend(e Ranked, maxPending, workers int, m *Metrics, degradedRank int, overloadDepth int64) *backend {
	b := &backend{
		Ranked:        e,
		metrics:       m,
		degradedRank:  degradedRank,
		overloadDepth: overloadDepth,
		queue:         make(chan *request, maxPending),
	}
	b.workers.Add(workers)
	for range workers {
		go func() {
			defer b.workers.Done()
			for req := range b.queue {
				b.answer(req)
			}
		}()
	}
	return b
}

// do admits req and waits for its answer. The response's rank is the
// effective rank of the call that answered (0 = full) — it can be
// truncated even when this caller did not vote for it (overload
// pressure), and full when it did (degradation not configured on this
// generation). A request the queue refused (ErrClosed, ErrOverloaded, no
// engine call for it) was never enqueued, so the caller may offer the
// same req to another generation.
func (b *backend) do(req *request) (response, error) {
	if (req.k > 0 && b.TopK == nil) || (req.k == 0 && b.Scores == nil) {
		b.metrics.rejected.Add(1)
		return response{}, fmt.Errorf("%w: this generation has no engine call to answer the request", ErrBadRequest)
	}
	req.out = make(chan response, 1)

	// The read-lock spans only the non-blocking enqueue, so close's write
	// lock cannot be acquired mid-send: once closed is set, no sender can
	// be inside this critical section when the queue is closed.
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

// close stops admission, lets the workers answer everything queued and
// waits for them to exit. Idempotent.
func (b *backend) close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.queue)
	}
	b.mu.Unlock()
	b.workers.Wait()
}

// overloaded reports whether the generation is under enough pressure that
// answering cheap beats answering exact: the admission queue is past the
// configured depth, or requests were shed since the last call (the queue
// hit its hard bound — the strongest possible signal).
func (b *backend) overloaded() bool {
	if b.overloadDepth <= 0 {
		return false
	}
	shed := b.metrics.shed.Load()
	if b.prevShed.Swap(shed) < shed {
		return true
	}
	return b.metrics.queueDepth.Load() > b.overloadDepth
}

// answer makes req's one engine call on a worker, on the request's own
// context, unless its caller has already left. The answer's bound is read
// here too: a cold Bound reads the generation's factors, and only a worker
// holds the generation — close waits for it, so the factors cannot be
// released under the read, as they can once the caller has its response.
func (b *backend) answer(req *request) {
	defer b.metrics.queueDepth.Add(-1)
	if req.ctx.Err() != nil {
		return
	}
	rank := 0
	if b.degradedRank > 0 && (req.degrade || b.overloaded()) {
		rank = b.degradedRank
		b.metrics.degradedBatches.Add(1)
	}
	b.metrics.batches.Add(1)
	b.metrics.nodes.Add(int64(len(req.nodes)))
	b.metrics.BatchOccupancy.Observe(float64(len(req.nodes)))

	resp := response{rank: rank}
	switch resp.err = fault.Hit(fault.SiteBatchQuery); { // chaos builds: engine-level latency/failure
	case resp.err != nil:
	case req.k > 0:
		resp.items, resp.prov, resp.err = b.TopK(req.ctx, req.nodes, req.k, rank)
	default:
		resp.scores, resp.err = b.Scores(req.ctx, req.nodes, req.targets, rank)
	}
	if resp.err == nil {
		resp.bound = b.Bound(rank)
	}
	req.out <- resp
}
