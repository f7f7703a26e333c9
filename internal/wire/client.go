package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csrplus/internal/dense"
	"csrplus/internal/fault"
	"csrplus/internal/retry"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
	"csrplus/internal/topk"
)

// Clock abstracts time for the client's backoff, breaker and latency
// clocks so tests can drive them deterministically. The real clock is the
// default.
type Clock = retry.Clock

// Options tunes one RemoteEngine. The zero value selects the documented
// defaults.
type Options struct {
	// Shard is the slot index this engine serves, for stats labelling.
	Shard int
	// Timeout bounds each HTTP attempt (not the logical call). Default
	// 5s; negative disables.
	Timeout time.Duration
	// MaxAttempts bounds attempts per logical call (1 = no retry).
	// Default 3.
	MaxAttempts int
	// BaseBackoff is the first retry's nominal delay; attempt i waits
	// BaseBackoff * 2^(i-1), halved-and-jittered (retry.Backoff).
	// Default 25ms. MaxBackoff caps the nominal delay; default 1s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold consecutive failed logical calls open the
	// circuit breaker; 0 means the default 5; negative disables.
	// BreakerCooldown is how long an open breaker fails fast before
	// admitting a probe call; default 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// AdminToken authenticates RollWorkers' /admin/reload calls.
	AdminToken string
	// Clock injects time (tests); nil uses the real clock.
	Clock Clock
	// Client is the HTTP client; nil builds a default one.
	Client *http.Client
	// Seed seeds the backoff jitter; 0 derives one from the real clock.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 5 * time.Second
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 3
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.Clock == nil {
		o.Clock = retry.System
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	return o
}

// SlotStats is one remote slot's health and traffic counters, merged
// into the router process's /metrics registry.
type SlotStats struct {
	Shard      int    `json:"shard"`
	Addr       string `json:"addr"`
	Generation uint64 `json:"generation"`
	Requests   int64  `json:"requests"`
	Errors     int64  `json:"errors"`
	Retries    int64  `json:"retries"`
	// Deprecated: Hedges is always 0; the client no longer hedges, and
	// every attempt of a call is one HTTP request. It stays for readers
	// of the "hedges" key.
	Hedges              int64                   `json:"hedges"`
	BreakerOpen         bool                    `json:"breaker_open"`
	ConsecutiveFailures int                     `json:"consecutive_failures"`
	Latency             serve.HistogramSnapshot `json:"latency_seconds"`
}

// RemoteEngine speaks the worker protocol and implements shard.Slot, so
// a shard.Router assembled over RemoteEngines merges network partials
// with the same code — and the same bitwise guarantees — as in-process
// shards. Safe for concurrent use.
type RemoteEngine struct {
	addr  string
	opt   Options
	clock Clock
	httpc *http.Client

	n, lo, hi, rank int
	c               float64

	gen    atomic.Uint64 // last generation observed in any response
	bytes  atomic.Int64  // last resident-bytes figure from /shard/meta
	stored atomic.Int64  // last stored-rows figure from /shard/meta
	build  atomic.Uint64 // last build id from /shard/meta
	mapped atomic.Bool   // last mapped flag from /shard/meta

	// dialed holds the bound terms Dial's /shard/meta carried until the
	// first BoundTerms call takes them.
	dialed atomic.Pointer[dialTerms]

	rngMu sync.Mutex
	rng   *rand.Rand

	breaker retry.Breaker

	requests atomic.Int64
	errCount atomic.Int64
	retries  atomic.Int64
	lat      *serve.Histogram
}

// Dial connects to a shard worker, resolves its shape metadata (with the
// client's usual retry policy), and returns a ready slot. The shape is
// fixed for the engine's lifetime — workers validate reloads against it.
func Dial(ctx context.Context, addr string, opt Options) (*RemoteEngine, error) {
	opt = opt.withDefaults()
	e := &RemoteEngine{
		addr:    strings.TrimSuffix(addr, "/"),
		opt:     opt,
		clock:   opt.Clock,
		httpc:   opt.Client,
		rng:     rand.New(rand.NewSource(opt.Seed)),
		breaker: retry.Breaker{Threshold: opt.BreakerThreshold, Cooldown: opt.BreakerCooldown, Clock: opt.Clock},
		lat:     serve.NewLatencyHistogram(),
	}
	meta, err := e.fetchMeta(ctx)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
	}
	if meta.N <= 0 || meta.Lo < 0 || meta.Lo >= meta.Hi || meta.Hi > meta.N || meta.Rank <= 0 {
		return nil, fmt.Errorf("wire: %s reports implausible shape n=%d [%d, %d) r=%d: %w",
			addr, meta.N, meta.Lo, meta.Hi, meta.Rank, shard.ErrShard)
	}
	e.n, e.lo, e.hi, e.rank, e.c = meta.N, meta.Lo, meta.Hi, meta.Rank, meta.Damping
	e.dialed.Store(&dialTerms{gen: meta.Generation, terms: meta.boundTerms()})
	return e, nil
}

// dialTerms is what the worker reported of its bound terms at Dial, and
// the generation that reported them.
type dialTerms struct {
	gen   uint64
	terms shard.BoundTerms
}

// Addr returns the worker base URL the engine dials.
func (e *RemoteEngine) Addr() string { return e.addr }

// N, Lo, Hi, Rank and Damping report the shape resolved at Dial.
func (e *RemoteEngine) N() int           { return e.n }
func (e *RemoteEngine) Lo() int          { return e.lo }
func (e *RemoteEngine) Hi() int          { return e.hi }
func (e *RemoteEngine) Rank() int        { return e.rank }
func (e *RemoteEngine) Damping() float64 { return e.c }

// Generation returns the last generation observed in a worker response —
// it advances when the worker rolls, which is what invalidates the
// router's bound cache.
func (e *RemoteEngine) Generation() uint64 { return e.gen.Load() }

// Bytes returns the worker's last reported resident factor bytes.
func (e *RemoteEngine) Bytes() int64 { return e.bytes.Load() }

// Stored returns the worker's last reported stored-row count.
func (e *RemoteEngine) Stored() int { return int(e.stored.Load()) }

// Build reports the index build of the worker's serving generation, as
// last fetched from /shard/meta.
func (e *RemoteEngine) Build() uint64 { return e.build.Load() }

// Mapped reports whether the worker last said it serves its shard from a
// mapped snapshot file.
func (e *RemoteEngine) Mapped() bool { return e.mapped.Load() }

// Stats snapshots the engine's traffic counters and breaker state.
func (e *RemoteEngine) Stats() SlotStats {
	fails, retryAt := e.breaker.State()
	return SlotStats{
		Shard:               e.opt.Shard,
		Addr:                e.addr,
		Generation:          e.gen.Load(),
		Requests:            e.requests.Load(),
		Errors:              e.errCount.Load(),
		Retries:             e.retries.Load(),
		BreakerOpen:         !retryAt.IsZero(),
		ConsecutiveFailures: fails,
		Latency:             e.lat.Snapshot(),
	}
}

// URows implements shard.Slot over POST /shard/urows.
func (e *RemoteEngine) URows(ctx context.Context, nodes []int) (*dense.Mat, error) {
	var resp URowsResponse
	if err := e.call(ctx, http.MethodPost, "/shard/urows", URowsRequest{Nodes: nodes}, &resp); err != nil {
		return nil, err
	}
	if len(resp.Rows) != len(nodes)*e.rank {
		return nil, fmt.Errorf("wire: %s returned %d U floats, want %d: %w", e.addr, len(resp.Rows), len(nodes)*e.rank, shard.ErrSlotDown)
	}
	e.observeGen(resp.Generation)
	return dense.NewMatFrom(len(nodes), e.rank, resp.Rows), nil
}

// PartialTopK implements shard.Slot over POST /shard/query. The int is
// ignored, as Slot says.
func (e *RemoteEngine) PartialTopK(ctx context.Context, queries []int, uq *dense.Mat, k, _ int) ([]topk.Item, error) {
	var resp QueryResponse
	req := QueryRequest{Queries: queries, UQ: uq.Data, K: k}
	if err := e.call(ctx, http.MethodPost, "/shard/query", req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Nodes) != len(resp.Scores) || len(resp.Nodes) > k {
		return nil, fmt.Errorf("wire: %s returned %d nodes / %d scores for k=%d: %w", e.addr, len(resp.Nodes), len(resp.Scores), k, shard.ErrSlotDown)
	}
	e.observeGen(resp.Generation)
	items := make([]topk.Item, len(resp.Nodes))
	for i := range items {
		items[i] = topk.Item{Node: resp.Nodes[i], Score: resp.Scores[i]}
	}
	return items, nil
}

// ScoreRows implements shard.Slot over POST /shard/scores.
func (e *RemoteEngine) ScoreRows(ctx context.Context, queries []int, uq *dense.Mat, rows []int) ([]float64, error) {
	var resp ScoresResponse
	req := ScoresRequest{Queries: queries, UQ: uq.Data, Rows: rows}
	if err := e.call(ctx, http.MethodPost, "/shard/scores", req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Scores) != len(rows)*len(queries) {
		return nil, fmt.Errorf("wire: %s returned %d scores, want %d: %w", e.addr, len(resp.Scores), len(rows)*len(queries), shard.ErrSlotDown)
	}
	e.observeGen(resp.Generation)
	return resp.Scores, nil
}

// BoundTerms implements shard.Slot over GET /shard/meta. The first call
// answers from the terms Dial fetched, while the worker still serves the
// generation that reported them, so a router primed right after Dial asks
// no worker twice.
func (e *RemoteEngine) BoundTerms(ctx context.Context) (shard.BoundTerms, error) {
	if d := e.dialed.Swap(nil); d != nil && d.gen == e.gen.Load() {
		return d.terms, nil
	}
	meta, err := e.fetchMeta(ctx)
	if err != nil {
		return shard.BoundTerms{}, err
	}
	return meta.boundTerms(), nil
}

// fetchMeta runs GET /shard/meta and keeps what it reports of the
// generation serving.
func (e *RemoteEngine) fetchMeta(ctx context.Context) (MetaResponse, error) {
	var meta MetaResponse
	if err := e.call(ctx, http.MethodGet, "/shard/meta", nil, &meta); err != nil {
		return MetaResponse{}, err
	}
	e.observeGen(meta.Generation)
	e.bytes.Store(meta.Bytes)
	e.stored.Store(int64(meta.Stored))
	e.build.Store(meta.Build)
	e.mapped.Store(meta.Mapped)
	return meta, nil
}

// Reload triggers the worker's snapshot reload (RollWorkers drives it).
func (e *RemoteEngine) Reload(ctx context.Context) (ReloadResponse, error) {
	var resp ReloadResponse
	if err := e.call(ctx, http.MethodPost, "/admin/reload", nil, &resp); err != nil {
		return ReloadResponse{}, err
	}
	e.observeGen(resp.Generation)
	return resp, nil
}

func (e *RemoteEngine) observeGen(gen uint64) {
	// Generations only advance; keep the max so a straggling response
	// from a pre-roll request cannot roll the observed generation back
	// (which would thrash the router's bound cache).
	for {
		cur := e.gen.Load()
		if gen <= cur || e.gen.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// call runs one logical RPC: breaker gate, then up to MaxAttempts
// attempts — one HTTP request each, the next only after the last failed —
// with jittered backoff between them, so one response reaches the caller
// per logical call and a shard's partials are never merged twice.
// Transport-class failures (connect errors, timeouts, 5xx, torn
// responses) are wrapped in shard.ErrSlotDown so the router can degrade around this shard; caller
// errors (4xx) surface as-is and are not retried. Context cancellation
// is never counted against the breaker — a caller giving up is not
// evidence the worker is down.
func (e *RemoteEngine) call(ctx context.Context, method, path string, req, resp any) error {
	e.requests.Add(1)
	if _, retryAt := e.breaker.State(); !retryAt.IsZero() {
		e.errCount.Add(1)
		return fmt.Errorf("wire: %s breaker open, retry in %v: %w", e.addr, retryAt.Sub(e.clock.Now()).Round(time.Millisecond), shard.ErrSlotDown)
	}
	var body []byte
	if req != nil {
		var err error
		if body, err = json.Marshal(req); err != nil {
			e.errCount.Add(1)
			return fmt.Errorf("wire: encoding %s request: %w", path, err)
		}
	}
	var lastErr error
	for attempt := 0; attempt < e.opt.MaxAttempts; attempt++ {
		if attempt > 0 {
			e.retries.Add(1)
			if err := e.sleepCtx(ctx, e.backoff(attempt)); err != nil {
				break
			}
		}
		data, err := e.post(ctx, method, path, body)
		if err == nil {
			if resp != nil {
				if derr := json.Unmarshal(data, resp); derr != nil {
					// A 200 whose body does not decode is a half-dead
					// worker, not a caller bug: retryable transport class.
					lastErr = fmt.Errorf("decoding %s response: %w", path, derr)
					continue
				}
			}
			e.breaker.Record(false)
			return nil
		}
		lastErr = err
		if ctx.Err() != nil || !retryable(err) {
			break
		}
	}
	e.errCount.Add(1)
	if ctx.Err() != nil {
		return fmt.Errorf("wire: %s %s: %w", e.addr, path, lastErr)
	}
	if retryable(lastErr) {
		e.breaker.Record(true)
		return fmt.Errorf("wire: %s %s failed after %d attempts: %v: %w", e.addr, path, e.opt.MaxAttempts, lastErr, shard.ErrSlotDown)
	}
	return fmt.Errorf("wire: %s %s: %w", e.addr, path, lastErr)
}

func (e *RemoteEngine) post(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	if err := fault.Hit(fault.SiteWireDial); err != nil {
		return nil, err
	}
	if e.opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opt.Timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.addr+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if e.opt.AdminToken != "" {
		req.Header.Set("Authorization", "Bearer "+e.opt.AdminToken)
	}
	start := e.clock.Now()
	resp, err := e.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	data, err := io.ReadAll(fault.Reader(fault.SiteWireRead, resp.Body))
	if err != nil {
		return nil, err
	}
	e.lat.Observe(e.clock.Now().Sub(start).Seconds())
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(data))
		var er ErrorResponse
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			msg = er.Error
		}
		return nil, &httpError{code: resp.StatusCode, msg: msg}
	}
	return data, nil
}

// backoff draws the jittered delay before retry attempt (1-based) from
// the engine's seeded source.
func (e *RemoteEngine) backoff(attempt int) time.Duration {
	e.rngMu.Lock()
	j := e.rng.Float64()
	e.rngMu.Unlock()
	return retry.Backoff(e.opt.BaseBackoff, e.opt.MaxBackoff, attempt, j)
}

func (e *RemoteEngine) sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-e.clock.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return fmt.Sprintf("http %d: %s", e.code, e.msg) }

// retryable classifies an attempt failure: transport errors, timeouts
// and 5xx/429 responses may clear on retry; other HTTP statuses are
// caller errors and burning attempts on them only hides bugs.
func retryable(err error) bool {
	if err == nil {
		return false
	}
	var he *httpError
	if errors.As(err, &he) {
		return he.code >= 500 || he.code == http.StatusTooManyRequests
	}
	return true
}
