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
// close stops new pins and waits for the held ones to drain. Every
// engine call runs at full rank, whatever the load.
type backend struct {
	Ranked // Direct: TopK and Scores are the engine calls; Bound is non-nil

	metrics *Metrics

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
}

// response is what the request's engine call produced: a top-k list with
// its provenance, or a |nodes| x |targets| score matrix.
type response struct {
	items  []topk.Item
	prov   TopKProvenance
	scores *dense.Mat
	bound  float64 // Bound(0), taken while the request still pins the generation
}

// newBackend readies e for workers concurrent engine calls and
// workers + maxPending pinned requests.
func newBackend(e Ranked, maxPending, workers int, m *Metrics) *backend {
	return &backend{
		Ranked:  e,
		metrics: m,
		slots:   make(chan struct{}, workers),
		pins:    make(chan struct{}, workers+maxPending),
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

// do answers req on the caller's goroutine with one full-rank engine
// call. A request the generation refused (ErrClosed,
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
	b.metrics.batches.Add(1)
	b.metrics.nodes.Add(int64(len(req.nodes)))
	b.metrics.BatchOccupancy.Observe(float64(len(req.nodes)))

	var resp response
	err := fault.Hit(fault.SiteBatchQuery) // chaos builds: engine-level latency/failure
	switch {
	case err != nil:
	case req.k > 0:
		resp.items, resp.prov, err = b.TopK(req.ctx, req.nodes, req.k, 0)
	default:
		resp.scores, err = b.Scores(req.ctx, req.nodes, req.targets)
	}
	if cerr := req.ctx.Err(); cerr != nil {
		b.metrics.expired.Add(1)
		return response{}, cerr
	}
	if err != nil {
		return response{}, err
	}
	resp.bound = b.Bound(0)
	return resp, nil
}
