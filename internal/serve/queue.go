package serve

import (
	"context"
	"fmt"
	"sync/atomic"

	"csrplus/internal/dense"
	"csrplus/internal/fault"
	"csrplus/internal/topk"
)

// backend is one engine generation: its engine calls, node count, rank
// structure and drift (the Ranked it was installed from), the requests
// pinned to it and the Workers slots their engine calls take. Immutable
// once installed apart from its pins — a reload builds a fresh backend and
// swaps the pointer.
//
// Every request runs on its caller's goroutine: it pins the generation it
// resolved (at most Workers + MaxPending at a time; the next is shed),
// waits for one of Workers slots, makes its one engine call and unpins.
// close stops new pins and waits for the held ones to drain.
//
// When a degraded rank is configured, a request's engine call runs
// truncated — trading accuracy bounded by the factor tail for an r'/r
// cost cut — if the request asked for it (deadline pressure, decided at
// admission) or the generation is under load pressure when the request
// takes its slot (queue depth past the threshold, or requests shed since
// the last call). The effective rank travels back with the response so
// the caller can tag what it served.
type backend struct {
	Ranked // Direct: TopK and Scores are the engine calls; Bound is non-nil

	metrics       *Metrics
	degradedRank  int   // truncated rank under pressure; 0 = never degrade
	overloadDepth int64 // queue depth that counts as pressure; 0 = disabled
	prevShed      atomic.Int64

	slots  chan struct{} // Workers tokens: one per engine call in flight
	pins   chan struct{} // Workers + MaxPending tokens: one per request pinned to b
	closed atomic.Bool   // set by close: a request finding no pin is refused, not shed
}

// request is one caller's ask: a top-k when k > 0, targeted scores
// otherwise.
type request struct {
	ctx     context.Context
	nodes   []int
	k       int
	targets []int
	degrade bool // admission-time vote to answer truncated
}

// response is what the request's engine call produced: a top-k list with
// its provenance, or a |nodes| x |targets| score matrix.
type response struct {
	items  []topk.Item
	prov   TopKProvenance
	scores *dense.Mat
	rank   int     // effective rank of the answering call; 0 = full
	bound  float64 // Bound(rank), taken while the request still pins the generation
}

// newBackend readies e for workers concurrent engine calls and
// workers + maxPending pinned requests; degradedRank and overloadDepth
// wire the graceful-degradation policy (both 0 for generations without
// rank structure).
func newBackend(e Ranked, maxPending, workers int, m *Metrics, degradedRank int, overloadDepth int64) *backend {
	return &backend{
		Ranked:        e,
		metrics:       m,
		degradedRank:  degradedRank,
		overloadDepth: overloadDepth,
		slots:         make(chan struct{}, workers),
		pins:          make(chan struct{}, workers+maxPending),
	}
}

// close stops new pins and waits until every pinned request has returned:
// once closed is set, do refuses every request, pinned or not, and close
// takes every pin itself, each as soon as a request drops it, and never
// gives them back. Called once, by the swap or Close that retires b.
func (b *backend) close() {
	b.closed.Store(true)
	for range cap(b.pins) {
		b.pins <- struct{}{}
	}
}

// do answers req on the caller's goroutine. The response's rank is the
// effective rank of the call that answered (0 = full) — it can be
// truncated even when this caller did not vote for it (overload
// pressure), and full when it did (degradation not configured on this
// generation). A request the generation refused (ErrClosed,
// ErrOverloaded, no engine call for it) made no engine call and holds no
// pin, so the caller may offer the same req to another generation.
//
// The answer's bound is read before unpinning: a cold Bound reads the
// generation's factors, and close waits for the pin, so the factors
// cannot be released under the read, as they can be once it unpins.
func (b *backend) do(req *request) (response, error) {
	if (req.k > 0 && b.TopK == nil) || (req.k == 0 && b.Scores == nil) {
		b.metrics.rejected.Add(1)
		return response{}, fmt.Errorf("%w: this generation has no engine call to answer the request", ErrBadRequest)
	}
	select {
	case b.pins <- struct{}{}:
		defer func() { <-b.pins }()
	default:
		if !b.closed.Load() {
			b.metrics.shed.Add(1)
			return response{}, ErrOverloaded
		}
	}
	// Checked after pinning too: close sets closed before it takes the
	// pins, so a pin can still be free once it has begun.
	if b.closed.Load() {
		b.metrics.rejected.Add(1)
		return response{}, ErrClosed
	}
	b.metrics.admitted.Add(1)
	b.metrics.queueDepth.Add(1)
	defer b.metrics.queueDepth.Add(-1)

	select {
	case b.slots <- struct{}{}:
		defer func() { <-b.slots }()
	case <-req.ctx.Done():
	}
	if err := req.ctx.Err(); err != nil {
		b.metrics.expired.Add(1)
		return response{}, err
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
	err := fault.Hit(fault.SiteBatchQuery) // chaos builds: engine-level latency/failure
	switch {
	case err != nil:
	case req.k > 0:
		resp.items, resp.prov, err = b.TopK(req.ctx, req.nodes, req.k, rank)
	default:
		resp.scores, err = b.Scores(req.ctx, req.nodes, req.targets, rank)
	}
	if cerr := req.ctx.Err(); cerr != nil {
		b.metrics.expired.Add(1)
		return response{}, cerr
	}
	if err != nil {
		return response{}, err
	}
	resp.bound = b.Bound(rank)
	return resp, nil
}

// overloaded reports whether the generation is under enough pressure that
// answering cheap beats answering exact: the admission queue is past the
// configured depth, or requests were shed since the last call (admission
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
