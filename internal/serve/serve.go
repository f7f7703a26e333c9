// Package serve is the production serving layer between an HTTP frontend
// and a csrplus engine. Every request takes one path: it is validated
// against the serving generation, probed in the optional instrumented
// LRU result cache, given its deadline and its degradation vote, admitted
// through the generation's bounded queue (shed with ErrOverloaded beyond
// it, ErrClosed after Close), run on the generation's bounded worker
// pool, tagged with how it was answered, and counted in one metrics
// registry; Close and SwapRanked drain whatever is queued or in flight.
//
// The only thing that varies is the engine call a pool worker makes,
// chosen per request kind from what the generation offers. A column call
// (Ranked.Query) exploits the paper's multi-source complexity
// O(r(m + n(r + |Q|))): because the per-call cost is dominated by terms
// independent of |Q|, concurrent requests are dynamically batched —
// coalesced into one multi-source engine pass and fanned back out —
// instead of issued one-by-one (the same pattern used in inference
// serving). A direct call (Ranked.TopK, Ranked.Scores) answers top-k and
// targeted scores without ever materialising n x |Q|, so each such
// request is its own engine call: a batch of one.
//
// csrserver sets TopK and Scores on every generation and never Query, so
// nothing it serves coalesces: the column engine (Ranked.Query,
// Config.MaxBatch/Linger/StrictLinger, the coalescing dispatch loop, the
// column-block budget) is a capability of this library with no caller in
// the server. It stays because the benchmark's in-process probe
// (csrload/layers.go) and the root BenchmarkServe* pair drive it; deleting
// it waits for that probe to be re-pointed at the direct calls.
//
// The engine behind the server is not fixed: each engine lives in a
// numbered generation described by one Ranked value, and SwapRanked
// installs a new generation RCU-style — requests admitted after the swap
// see the new engine while in-flight engine calls finish on the old one
// — so an index rebuild or snapshot reload never pauses traffic (see
// internal/reload for the lifecycle around it).
//
// Generations with rank structure additionally get graceful
// degradation: under pressure — a request admitted with too little
// deadline budget, the admission queue past a depth threshold, or
// requests being shed — engine calls run at a truncated rank r' < r,
// trading entrywise accuracy bounded by the factor tail for an r'/r cost
// cut. Every degraded response is tagged with its effective rank and the
// engine's advertised error bound, so clients can tell an exact answer
// from a cheap one.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"csrplus/internal/cache"
	"csrplus/internal/dense"
	"csrplus/internal/fault"
	"csrplus/internal/topk"
)

// DefaultMaxK is the server-side cap on requested k when Config.MaxK is
// unset: large enough for any ranking UI, small enough that one request
// cannot demand a near-full sort of a massive graph's score vector.
const DefaultMaxK = 1000

// DefaultDegradeQueueFraction is the admission-queue fill fraction past
// which batches degrade, when degradation is enabled without an explicit
// threshold.
const DefaultDegradeQueueFraction = 0.75

// DegradeConfig tunes graceful degradation. It only takes effect on
// generations that advertise a Rank (Ranked.Rank 0 has nothing to
// truncate).
type DegradeConfig struct {
	// Rank is the truncated rank served under pressure. 0 disables
	// degradation; values >= the engine's full rank also disable it
	// (there is nothing to truncate to).
	Rank int
	// QueueFraction is the admission-queue fill fraction (of MaxPending)
	// past which whole batches degrade. Default
	// DefaultDegradeQueueFraction when Rank > 0; negative disables the
	// queue-depth trigger (leaving only per-request budget votes and
	// shed-pressure).
	QueueFraction float64
	// MinBudget degrades a request admitted with less than this much
	// deadline budget remaining — it would rather answer cheap than miss
	// its deadline answering exact. 0 disables the budget trigger.
	MinBudget time.Duration
}

// Config tunes a Server. The zero value selects sensible production
// defaults (documented per field).
type Config struct {
	// MaxBatch is the most unique query nodes coalesced into one column
	// engine call. Default 32. 1 disables coalescing (each request is its
	// own engine call) — the "unbatched" baseline in benchmarks.
	MaxBatch int
	// Linger is how long a column request may wait for co-batching before
	// a partial batch is flushed. Default 2ms; 0 flushes immediately,
	// batching only requests that are already queued.
	Linger time.Duration
	// Workers bounds concurrent engine calls. Default GOMAXPROCS.
	Workers int
	// StrictLinger disables the idle-worker eager flush: partial batches
	// always wait for the MaxBatch or Linger trigger. This maximises
	// batch occupancy — the right trade for throughput-bound deployments
	// — at the cost of up to Linger extra latency under light load. The
	// default (false) flushes a partial batch whenever a worker is idle,
	// optimising latency.
	StrictLinger bool
	// MaxPending bounds the admission queue; beyond it requests are shed
	// with ErrOverloaded. Default 1024.
	MaxPending int
	// MaxK caps the k a single request may ask for (400 to the client
	// beyond it). Default DefaultMaxK.
	MaxK int
	// Timeout is the per-request deadline applied when the caller's
	// context has none. Default 0 = no server-imposed deadline.
	Timeout time.Duration
	// Cache, when non-nil, memoises TopK results and is instrumented
	// through the server's metrics registry. Keys are namespaced by
	// engine generation, so a swap implicitly invalidates every earlier
	// entry (and Clear is called on swap to release the memory early).
	// Only full-rank results are cached: a degraded answer must never
	// outlive the pressure that justified it.
	Cache *cache.LRU
	// Degrade configures graceful degradation (see DegradeConfig).
	Degrade DegradeConfig
}

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = 32
	}
	if c.Linger == 0 {
		c.Linger = 2 * time.Millisecond
	} else if c.Linger < 0 {
		c.Linger = 0
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxPending == 0 {
		c.MaxPending = 1024
	}
	if c.MaxK == 0 {
		c.MaxK = DefaultMaxK
	}
	if c.Degrade.Rank > 0 && c.Degrade.QueueFraction == 0 {
		c.Degrade.QueueFraction = DefaultDegradeQueueFraction
	}
	return c
}

// Match is one top-k result, JSON-compatible with csrplus.Match.
type Match struct {
	Node  int     `json:"node"`
	Score float64 `json:"score"`
}

// Pair is one (query, target) similarity score.
type Pair struct {
	Query  int     `json:"query"`
	Target int     `json:"target"`
	Score  float64 `json:"score"`
}

// QueryInfo tags a response with how it was answered. The zero value
// means a full-rank (exact) answer.
type QueryInfo struct {
	// Degraded reports the answer was computed at a truncated rank.
	Degraded bool `json:"degraded"`
	// EffectiveRank is the rank actually used; 0 when full.
	EffectiveRank int `json:"effective_rank,omitempty"`
	// FullRank is the engine's full rank, for r'/r context. 0 when the
	// backend has no rank structure.
	FullRank int `json:"full_rank,omitempty"`
	// ErrorBound bounds |served score - exact score|; 0 for exact
	// answers. A pair score is one entry of S, so it carries the engine's
	// advertised entrywise bound for this rank plus the drift. A top-k
	// score is a sum over the |Q| query columns, so it carries |Q| times
	// that. When shards are missing it additionally absorbs the
	// missing-shard inflation.
	ErrorBound float64 `json:"error_bound,omitempty"`
	// MissingShards counts shards that could not contribute to this
	// answer (wire backends only); > 0 implies Degraded.
	MissingShards int `json:"missing_shards,omitempty"`
	// DriftBound is the streaming-ingestion drift bound of the serving
	// generation: how far any score may sit from the live graph's exact
	// value because edges arrived after the factors were built — per entry
	// of S, whatever the request. Already included in ErrorBound (once per
	// query column). 0 when the backend has no ingestion.
	DriftBound float64 `json:"drift_bound,omitempty"`
}

// SearchResult is TopK's full-fidelity result shape.
type SearchResult struct {
	Matches []Match   `json:"matches"`
	Cached  bool      `json:"cached"`
	Info    QueryInfo `json:"info"`
}

// PairsResult is Similarity's full-fidelity result shape.
type PairsResult struct {
	Pairs []Pair    `json:"pairs"`
	Info  QueryInfo `json:"info"`
}

// backend is one engine generation: the batcher (queue, dispatch loop,
// worker pool) feeding its engine, the node count requests are validated
// against, the rank structure answers are tagged with, and the
// generation number that namespaces its cache entries. Immutable once
// installed — a reload builds a fresh backend and swaps the pointer.
type backend struct {
	gen     uint64
	n       int
	rank    int               // engine's full rank; 0 = no rank structure
	bound   func(int) float64 // entrywise truncation bound; never nil
	batcher *Batcher
	drift   DriftFunc // non-nil taints answers with ingestion drift
}

// Server answers top-k and similarity requests over one engine through
// one admission, degradation and drain path. Safe for concurrent use.
//
// The engine is held behind an atomic generation pointer: SwapRanked
// installs a replacement without pausing the worker pool, so callers never observe
// downtime across an index reload. Every request resolves the generation
// once at admission and completes entirely on it — node-id validation,
// engine routing and cache keys all derive from that one snapshot, which
// is what makes a post-swap response provably never come from a pre-swap
// cache entry.
type Server struct {
	cfg     Config
	metrics *Metrics

	be     atomic.Pointer[backend]
	swapMu sync.Mutex // serialises SwapRanked and Close
	gen    uint64     // last installed generation; guarded by swapMu
	closed bool       // guarded by swapMu
}

// RankQueryFunc answers one multi-source engine pass at a chosen rank
// (0 or >= the engine's rank = full) into a reusable scratch matrix: the
// n x |Q| result reuses scratch's backing array when its capacity
// suffices (nil scratch allocates) and is returned. It honours ctx
// between row bands so an abandoned batch stops consuming its worker
// mid-pass. core.(*Index).QueryRankInto, less its tracker, satisfies it.
type RankQueryFunc func(ctx context.Context, queries []int, rank int, scratch *dense.Mat) (*dense.Mat, error)

// TopKProvenance reports how a direct top-k answer was assembled: how
// many shards could not contribute and the bound inflation their absence
// adds to every reported score.
type TopKProvenance struct {
	// MissingShards counts shards skipped over (dead workers behind open
	// breakers, exhausted retries). 0 means every shard contributed and
	// the merge is exact.
	MissingShards int
	// ErrorBound bounds how far any reported score can sit from the
	// exact answer given the missing shards; 0 when none are missing.
	ErrorBound float64
}

// DirectTopKFunc answers one top-k request in one engine call — the
// contract a scatter–gather router satisfies (shard.Router.TopKTagged):
// shards return rank-limited partial top-k lists and the router merges
// them exactly, so no n x |Q| matrix ever materialises and there is
// nothing to coalesce. rank <= 0 means full rank.
type DirectTopKFunc func(ctx context.Context, queries []int, k, rank int) ([]topk.Item, TopKProvenance, error)

// DirectScoreFunc answers targeted (query, target) scores in one engine
// call, returning a |queries| x |targets| matrix (shard.Router.Scores
// satisfies it). Unlike DirectTopKFunc there is no degraded variant: a
// targeted score from a dead shard has no meaningful substitute, so
// missing shards fail the call.
type DirectScoreFunc func(ctx context.Context, queries, targets []int, rank int) (*dense.Mat, error)

// Ranked describes one engine generation — the single contract between
// the server and whatever answers its queries. Query, TopK and Scores are
// the engine calls the generation's pool workers may make; which of them
// are set is the only difference between generations — admission,
// shedding, degradation, tagging, caching and drain are the same.
type Ranked struct {
	// N is the node count requests are validated against.
	N int
	// Rank is the engine's full SVD rank; 0 disables degradation for
	// this generation.
	Rank int
	// Bound reports the entrywise error bound of answering at a
	// truncated rank (shard.(*Router).TruncationBound). nil means "no
	// bound advertised" and reports 0.
	Bound func(rank int) float64
	// Query answers one multi-source column pass at a chosen rank;
	// concurrent requests coalesce into it. May be nil when TopK is set
	// (csrserver's generations never materialise columns); a request with
	// no engine call to answer it is then refused with ErrBadRequest.
	Query RankQueryFunc
	// TopK, when non-nil, answers each Search/TopK request as its own
	// engine call instead of out of Query's columns. Scores does the
	// same for Score/Similarity.
	TopK   DirectTopKFunc
	Scores DirectScoreFunc
	// Drift, when non-nil, reports the live ingestion drift bound for
	// this generation's factors (see DriftFunc). Every answer composes
	// it into ErrorBound; exceeded additionally marks answers Degraded.
	Drift DriftFunc
}

// DriftFunc reports how far a generation's factors may have drifted
// from the live graph because of streamed edge insertions applied since
// the factors were built: an entrywise score bound, and whether the
// operator's drift budget is exhausted (a rebuild is due or in flight).
// Called on every response — implementations must be cheap and safe for
// concurrent use.
type DriftFunc func() (bound float64, exceeded bool)

// NewRanked builds a Server whose generation 1 is e; SwapRanked installs
// successors.
func NewRanked(e Ranked, cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	if cfg.Cache != nil {
		cfg.Cache.SetRecorder(m)
	}
	s := &Server{cfg: cfg, metrics: m}
	s.SwapRanked(e)
	return s
}

// wrapRankQuery adapts an engine to the batcher, giving it a private
// sync.Pool of scratch matrices: every engine pass borrows an
// n x maxBatch-capacity matrix instead of allocating n x |Q| afresh, which
// keeps the steady-state hot path allocation-light (the per-column copies
// handed to callers remain — they outlive the batch). Each generation
// gets its own pool, so scratch dimensioned for an old graph never leaks
// into a new engine's passes.
func wrapRankQuery(queryFn RankQueryFunc) batchQueryFunc {
	var pool sync.Pool
	return func(ctx context.Context, queries []int, rank int) ([][]float64, error) {
		if fault.ShouldFailAlloc(fault.SiteScratchAlloc) {
			return nil, fault.ErrAllocFailed
		}
		scratch, _ := pool.Get().(*dense.Mat)
		s, err := queryFn(ctx, queries, rank, scratch)
		if err != nil {
			if scratch != nil {
				pool.Put(scratch)
			}
			return nil, err
		}
		cols := make([][]float64, len(queries))
		for j := range queries {
			cols[j] = s.Col(j, nil)
		}
		pool.Put(s) // s is scratch when it had capacity, else its grown replacement
		return cols, nil
	}
}

// SwapRanked atomically installs a new engine generation and returns its
// number. Requests admitted after it returns are validated against e.N,
// answered by e, and cached under the new generation's key space;
// engine calls already in flight finish on the old engine (RCU-style:
// readers drain, they are never interrupted). SwapRanked then closes the
// old generation's batcher — flushing its queued requests and waiting
// for its pool, which is the drain barrier reload.Candidate.Release
// relies on — and clears the
// result cache so superseded entries release their memory immediately
// (they are already unreachable: cache keys embed the generation).
// Returns 0 without swapping when the server is already closed.
func (s *Server) SwapRanked(e Ranked) uint64 {
	eng := engine{n: e.N, topk: e.TopK, scores: e.Scores}
	if e.Query != nil {
		eng.columns = wrapRankQuery(e.Query)
	}
	bound := e.Bound
	if bound == nil {
		bound = func(int) float64 { return 0 }
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.closed {
		return 0
	}
	// Degradation only arms when the configured truncated rank is a real
	// truncation of this engine; the queue-depth trigger needs a positive
	// fraction of the admission bound.
	degradedRank, overloadDepth := 0, int64(0)
	if s.cfg.Degrade.Rank > 0 && s.cfg.Degrade.Rank < e.Rank {
		degradedRank = s.cfg.Degrade.Rank
		if f := s.cfg.Degrade.QueueFraction; f > 0 {
			overloadDepth = int64(f * float64(s.cfg.MaxPending))
		}
	}
	s.gen++
	nb := &backend{
		gen:     s.gen,
		n:       e.N,
		rank:    e.Rank,
		bound:   bound,
		batcher: newBatcher(eng, s.cfg.MaxBatch, s.cfg.Linger, s.cfg.MaxPending, s.cfg.Workers, s.cfg.StrictLinger, s.metrics, degradedRank, overloadDepth),
		drift:   e.Drift,
	}
	old := s.be.Swap(nb)
	s.metrics.SetGeneration(s.gen)
	if old != nil {
		old.batcher.Close() // graceful: queued requests are answered by the old engine
	}
	if s.cfg.Cache != nil && old != nil {
		s.cfg.Cache.Clear()
	}
	return s.gen
}

// Generation returns the engine generation currently taking new requests.
func (s *Server) Generation() uint64 { return s.metrics.Generation() }

// N reports the node count of the current generation's graph.
func (s *Server) N() int { return s.be.Load().n }

// Metrics exposes the registry shared by every component of this server.
func (s *Server) Metrics() *Metrics { return s.metrics }

// MaxK reports the effective server-side k cap.
func (s *Server) MaxK() int { return s.cfg.MaxK }

// Close drains the server: admission stops (ErrClosed), queued requests
// are answered, in-flight engine calls finish. Idempotent.
func (s *Server) Close() {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if be := s.be.Load(); be != nil {
		be.batcher.Close()
	}
}

// validate checks a request's node ids against one generation: the
// query set must be non-empty and every query and target in [0, n).
func validate(nodes, targets []int, n int) error {
	if len(nodes) == 0 {
		return fmt.Errorf("%w: empty query set", ErrBadRequest)
	}
	for _, q := range nodes {
		if q < 0 || q >= n {
			return fmt.Errorf("%w: node %d out of range [0, %d)", ErrBadRequest, q, n)
		}
	}
	for _, t := range targets {
		if t < 0 || t >= n {
			return fmt.Errorf("%w: target %d out of range [0, %d)", ErrBadRequest, t, n)
		}
	}
	return nil
}

// Validation failures are counted but never reach the batcher: a bad node
// id must not poison the co-batched requests sharing its engine pass.
func (s *Server) reject(err error) error {
	s.metrics.rejected.Add(1)
	return err
}

func (s *Server) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.Timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			return context.WithTimeout(ctx, s.cfg.Timeout)
		}
	}
	return ctx, func() {}
}

// degradeVote is the admission-time degradation decision: a request
// arriving with less than MinBudget of deadline left votes to be answered
// cheap rather than risk answering late.
func (s *Server) degradeVote(ctx context.Context) bool {
	mb := s.cfg.Degrade.MinBudget
	if mb <= 0 {
		return false
	}
	dl, ok := ctx.Deadline()
	return ok && time.Until(dl) < mb
}

// admit gives the request its deadline and degradation vote, resolves
// the current generation and runs the request on it. When the resolved
// generation is superseded between the load and the enqueue — its
// batcher rejects with ErrClosed but the server as a whole is still open
// — the request transparently retries on the successor, so a reload in
// progress never surfaces as a caller error. Each retry re-resolves the
// generation, and the returned backend is the one that actually answered
// (its gen names the cache key space, its rank structure interprets the
// response's effective rank).
func (s *Server) admit(ctx context.Context, req request) (*backend, response, error) {
	ctx, cancel := s.deadline(ctx)
	defer cancel()
	req.ctx, req.degrade = ctx, s.degradeVote(ctx)
	for {
		be := s.be.Load()
		// This may not be the generation the caller validated against: a
		// successor can serve a different graph, and a node id valid under
		// the superseded generation must fail here, not reach its engine.
		if err := validate(req.nodes, req.targets, be.n); err != nil {
			return be, response{}, s.reject(err)
		}
		resp, err := be.batcher.do(&req)
		if errors.Is(err, ErrClosed) && s.be.Load() != be {
			continue // lost the race with a swap; the successor is live
		}
		return be, resp, err
	}
}

// info tags a response with the rank that answered it, the generation's
// live ingestion drift and the shards a direct top-k had to do without,
// counting degraded answers in the metrics registry. Truncation (with the
// tier's quantization term inside it) and drift are entrywise bounds on S,
// and cols is how many entries of S one reported score sums: 1 for a pair
// score, |Q| for a top-k aggregate (duplicates counted — they weigh
// double in the score too), so each is charged cols times. The
// missing-shard inflation arrives already scaled by |Q|. The terms compose
// additively into ErrorBound, and an exhausted drift budget or a missing
// shard marks the answer Degraded even at full rank.
func (s *Server) info(be *backend, resp response, cols int) QueryInfo {
	info := QueryInfo{FullRank: be.rank}
	if resp.rank > 0 {
		info.Degraded = true
		info.EffectiveRank = resp.rank
		info.ErrorBound = float64(cols) * be.bound(resp.rank)
	}
	if be.drift != nil {
		if d, exceeded := be.drift(); d > 0 || exceeded {
			info.DriftBound = d
			info.ErrorBound += float64(cols) * d
			info.Degraded = info.Degraded || exceeded
		}
	}
	if resp.prov.MissingShards > 0 {
		info.Degraded = true
		info.MissingShards = resp.prov.MissingShards
		info.ErrorBound += resp.prov.ErrorBound
	}
	if info.Degraded {
		s.metrics.degraded.Add(1)
	}
	return info
}

// TopK returns the k nodes most similar to the query set (aggregate
// similarity for multi-node sets, each query node excluded). cached
// reports a cache hit. k is clamped to n and rejected beyond Config.MaxK.
// For degradation tagging, use Search.
func (s *Server) TopK(ctx context.Context, queries []int, k int) (matches []Match, cached bool, err error) {
	res, err := s.Search(ctx, queries, k)
	return res.Matches, res.Cached, err
}

// Search is TopK with response provenance: the result reports whether it
// came from cache and, when the answering engine call ran degraded or
// without some shards, the effective rank, the missing-shard count and
// the advertised error bound.
func (s *Server) Search(ctx context.Context, queries []int, k int) (SearchResult, error) {
	start := time.Now()
	be := s.be.Load()
	if err := validate(queries, nil, be.n); err != nil {
		return SearchResult{}, s.reject(err)
	}
	if k < 1 {
		return SearchResult{}, s.reject(fmt.Errorf("%w: k must be >= 1, got %d", ErrBadRequest, k))
	}
	if k > s.cfg.MaxK {
		return SearchResult{}, s.reject(fmt.Errorf("%w: k=%d exceeds server maximum %d", ErrBadRequest, k, s.cfg.MaxK))
	}
	if k > be.n {
		k = be.n // a graph has at most n candidates; clamp instead of erroring
	}

	if s.cfg.Cache != nil {
		if v, ok := s.cfg.Cache.Get(topKKey(be.gen, queries, k)); ok {
			s.metrics.Latency.Observe(time.Since(start).Seconds())
			// A cached entry was exact when computed, but drift is a
			// property of the factors against the *live* graph: tag it
			// with the bound as of now, not as of the entry's insert.
			return SearchResult{Matches: v.([]Match), Cached: true, Info: s.info(be, response{}, len(queries))}, nil
		}
	}

	served, resp, err := s.admit(ctx, request{nodes: queries, k: k})
	if err != nil {
		return SearchResult{}, err
	}
	var matches []Match
	if resp.cols != nil {
		matches = selectTopK(resp.cols, queries, k)
	} else {
		matches = toMatches(resp.items)
	}
	if s.cfg.Cache != nil && resp.rank <= 0 && resp.prov.MissingShards == 0 {
		// Key by the generation that served the request (it may be newer
		// than the one the cache was probed under): the entry must only
		// ever answer lookups against the engine that produced it. Only
		// full-fidelity answers are cached — a degraded rank or a
		// missing-shard merge must not outlive the pressure or the outage
		// that justified it.
		s.cfg.Cache.Put(topKKey(served.gen, queries, k), matches)
	}
	s.metrics.Latency.Observe(time.Since(start).Seconds())
	return SearchResult{Matches: matches, Info: s.info(served, resp, len(queries))}, nil
}

// Similarity returns the score of every (query, target) pair. For
// degradation tagging, use Score.
func (s *Server) Similarity(ctx context.Context, queries, targets []int) ([]Pair, error) {
	res, err := s.Score(ctx, queries, targets)
	return res.Pairs, err
}

// maxScorePairs caps |Q| x |T| of one Score: both lengths are the caller's, and each pair is 32 B before JSON.
const maxScorePairs = 1 << 20

// Score is Similarity with response provenance (see Search).
func (s *Server) Score(ctx context.Context, queries, targets []int) (PairsResult, error) {
	start := time.Now()
	if len(targets) == 0 {
		return PairsResult{}, s.reject(fmt.Errorf("%w: empty target set", ErrBadRequest))
	}
	if len(queries) > maxScorePairs/len(targets) {
		return PairsResult{}, s.reject(fmt.Errorf("%w: %d nodes x %d targets exceeds %d pairs per request", ErrBadRequest, len(queries), len(targets), maxScorePairs))
	}
	if err := validate(queries, targets, s.be.Load().n); err != nil {
		return PairsResult{}, s.reject(err)
	}
	served, resp, err := s.admit(ctx, request{nodes: queries, targets: targets})
	if err != nil {
		return PairsResult{}, err
	}
	out := make([]Pair, 0, len(queries)*len(targets))
	for qi, q := range queries {
		for ti, t := range targets {
			score := 0.0
			if resp.cols != nil {
				score = resp.cols[q][t]
			} else {
				score = resp.scores.At(qi, ti)
			}
			out = append(out, Pair{Query: q, Target: t, Score: score})
		}
	}
	s.metrics.Latency.Observe(time.Since(start).Seconds())
	return PairsResult{Pairs: out, Info: s.info(served, resp, 1)}, nil
}

// selectTopK ranks out of materialised columns — the path of a generation
// with no TopK of its own (csrserver always sets one). It mirrors
// csrplus.Engine.TopK / TopKMulti exactly: single queries exclude
// themselves; multi-source queries rank by the columns summed in query
// order (duplicates in the query set weigh double) excluding every query
// node — the sum the direct path takes band by band, bit for bit.
func selectTopK(cols map[int][]float64, queries []int, k int) []Match {
	if len(queries) == 1 {
		q := queries[0]
		return toMatches(topk.Select(cols[q], k, q))
	}
	agg := make([]float64, len(cols[queries[0]]))
	for _, q := range queries {
		for i, v := range cols[q] {
			agg[i] += v
		}
	}
	exclude := make(map[int]bool, len(queries))
	for _, q := range queries {
		exclude[q] = true
	}
	return toMatches(topk.SelectSet(agg, k, exclude))
}

func toMatches(items []topk.Item) []Match {
	out := make([]Match, len(items))
	for i, it := range items {
		out[i] = Match{Node: it.Node, Score: it.Score}
	}
	return out
}

// topKKey namespaces cache entries by engine generation: after a swap,
// every pre-swap entry becomes unreachable by construction, so a stale
// column can never be served against a new index even while old and new
// generations briefly coexist.
func topKKey(gen uint64, queries []int, k int) string {
	ids := make([]string, len(queries))
	for i, q := range queries {
		ids[i] = strconv.Itoa(q)
	}
	return fmt.Sprintf("g%d|topk|%s|%d", gen, strings.Join(ids, ","), k)
}
