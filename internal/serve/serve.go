// Package serve is the production serving layer between an HTTP frontend
// and a csrplus engine. Every request takes one path, on its caller's
// goroutine: it is validated against the serving generation, given its
// deadline, pinned to that generation (shed with
// ErrOverloaded once it holds Workers + MaxPending requests, ErrClosed
// after Close), waits for one of the generation's Workers slots, makes
// one engine call, is tagged with how it was answered and counted in one
// metrics registry, and unpins. Close and SwapRanked wait for the pins to
// drain. The package starts no goroutines. Nothing is memoised, and load
// changes only whether a request is answered — shed (ErrOverloaded) or
// expired (its deadline) — never how: every engine call runs at the
// generation's full rank, so an answer depends only on the generation that
// served it and the request.
//
// Every engine call answers exactly one request: Ranked.TopK for a top-k,
// Ranked.Scores for targeted scores. Neither materialises n x |Q| — top-k
// is scored band by band into a bounded selector, a score is an inner
// product of two rank-r rows — so concurrent requests have no per-call
// floor to share and nothing coalesces. A generation that offers only a
// column pass (Ranked.Query) is adapted onto those two calls by
// Ranked.Direct, one column pass per request.
//
// The engine behind the server is not fixed: each engine lives in a
// numbered generation described by one Ranked value, and SwapRanked
// installs a new generation RCU-style — requests admitted after the swap
// see the new engine while in-flight engine calls finish on the old one
// — so an index rebuild or snapshot reload never pauses traffic (see
// internal/reload for the lifecycle around it).
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"csrplus/internal/cache"
	"csrplus/internal/dense"
	"csrplus/internal/topk"
)

// DefaultMaxK is the server-side cap on requested k when Config.MaxK is
// unset: large enough for any ranking UI, small enough that one request
// cannot demand a near-full sort of a massive graph's score vector.
const DefaultMaxK = 1000

// Config tunes a Server. The zero value selects sensible production
// defaults (documented per field).
type Config struct {
	// Deprecated: ignored. Nothing coalesces; the field stays only until
	// the benchmark harness (csrload/layers.go) stops setting it.
	MaxBatch int
	// Deprecated: ignored, like MaxBatch.
	Linger time.Duration
	// Workers bounds a generation's concurrent engine calls: each request
	// makes its call on its own goroutine once it holds one of Workers
	// slots. Default GOMAXPROCS; at least 1.
	Workers int
	// MaxPending bounds how many requests may wait for a slot; a
	// generation holding Workers + MaxPending requests sheds the next
	// with ErrOverloaded. Default 1024.
	MaxPending int
	// MaxK caps the k a single request may ask for (400 to the client
	// beyond it). Default DefaultMaxK.
	MaxK int
	// Timeout is the per-request deadline applied when the caller's
	// context has none. Default 0 = no server-imposed deadline.
	Timeout time.Duration
	// Deprecated: ignored, like MaxBatch. Nothing is memoised.
	Cache *cache.LRU
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	c.Workers = max(c.Workers, 1)
	if c.MaxPending == 0 {
		c.MaxPending = 1024
	}
	c.MaxPending = max(c.MaxPending, 1)
	if c.MaxK == 0 {
		c.MaxK = DefaultMaxK
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

// QueryInfo tags a response with how it was answered. Every answer is
// computed at the generation's full rank; the zero value means an exact
// one.
type QueryInfo struct {
	// Degraded reports the answer was cut short: a shard could not
	// contribute, or the drift budget is exhausted.
	Degraded bool `json:"degraded"`
	// ErrorBound bounds |served score - exact score|; 0 for exact
	// answers. A pair score is one entry of S, so it carries the engine's
	// advertised entrywise bound at full rank — a quantized tier's
	// quantization term, 0 for an exact tier — plus the drift. A top-k
	// score is a sum over the |Q| query columns, so it carries |Q| times
	// that. When shards are missing it additionally absorbs the
	// missing-shard inflation. A non-zero bound alone does not make an
	// answer Degraded.
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

// SearchResult is a top-k answer and how it was answered.
type SearchResult struct {
	Matches []Match   `json:"matches"`
	Info    QueryInfo `json:"info"`
}

// PairsResult is a targeted-score answer and how it was answered.
type PairsResult struct {
	Pairs []Pair    `json:"pairs"`
	Info  QueryInfo `json:"info"`
}

// Server answers top-k and similarity requests over one engine through
// one admission and drain path. Safe for concurrent use.
//
// The engine is held behind an atomic generation pointer: SwapRanked
// installs a replacement without pausing admission, so callers never
// observe downtime across an index reload. Every request resolves the
// generation once at admission and completes entirely on it — node-id
// validation and the engine call both derive from that one snapshot.
type Server struct {
	cfg     Config
	metrics *Metrics

	be     atomic.Pointer[backend]
	swapMu sync.Mutex // serialises SwapRanked and Close
	gen    uint64     // last installed generation; guarded by swapMu
	closed bool       // guarded by swapMu
}

// RankQueryFunc answers one multi-source column pass: the n x |Q| block,
// reusing scratch's backing array when its capacity suffices
// (Ranked.Direct always passes nil, so it allocates). It honours ctx
// between row bands so an abandoned request stops consuming its slot
// mid-pass. core.(*Index).QueryRankInto, less its tracker, satisfies it.
// The int is ignored (serve passes 0); it stays only because the
// benchmark harness (csrload) passes it (ROADMAP item 1 Step B).
type RankQueryFunc func(ctx context.Context, queries []int, _ int, scratch *dense.Mat) (*dense.Mat, error)

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
// shards return partial top-k lists and the router merges them exactly,
// so no n x |Q| matrix ever materialises and there is nothing to
// coalesce. The int is ignored (serve passes 0); it stays only because
// the benchmark harness (csrload) passes it (ROADMAP item 1 Step B).
type DirectTopKFunc func(ctx context.Context, queries []int, k, _ int) ([]topk.Item, TopKProvenance, error)

// DirectScoreFunc answers targeted (query, target) scores in one engine
// call, returning a |queries| x |targets| matrix (shard.Router.Scores
// satisfies it). Unlike DirectTopKFunc there is no missing-shard variant:
// a targeted score from a dead shard has no meaningful substitute, so
// missing shards fail the call.
type DirectScoreFunc func(ctx context.Context, queries, targets []int) (*dense.Mat, error)

// Ranked describes one engine generation — the single contract between
// the server and whatever answers its queries. TopK and Scores are the
// engine calls the generation's requests make, one each; admission,
// shedding, tagging and drain do not depend on what is behind them.
type Ranked struct {
	// N is the node count requests are validated against.
	N int
	// Deprecated: ignored. Every call runs at full rank; the field stays
	// only until the benchmark harness (csrload/layers.go) stops setting it.
	Rank int
	// Bound reports the entrywise error bound of an answer
	// (shard.(*Router).TruncationBound: the tier's quantization term);
	// nil reports 0. The int is ignored (serve passes 0); it stays only
	// because the benchmark harness (csrload) sets Bound to
	// core.(*Index).TruncationBound (ROADMAP item 1 Step B).
	Bound func(int) float64
	// Query, when TopK or Scores is nil, stands in for it: Direct answers
	// the request out of one column pass of its own. csrserver's
	// generations never set it.
	Query RankQueryFunc
	// TopK answers each Search request, Scores each Score request. A
	// request whose call is nil (and not adapted from Query) is refused
	// with ErrBadRequest.
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
	s := &Server{cfg: cfg.withDefaults(), metrics: NewMetrics()}
	s.SwapRanked(e)
	return s
}

// maxColumnBlockBytes caps the n x |Q| block one adapted request may make
// a column pass allocate.
const maxColumnBlockBytes = 256 << 20

// Direct returns e with a direct call for each request kind its Query can
// answer: a nil TopK or Scores becomes a closure that runs one column pass
// of the request's own nodes, as asked, and reads the answer out of it —
// a top-k exactly as csrplus.Engine.TopK / TopKMulti rank, a score by
// entry. Calls e already has are kept. SwapRanked installs every
// generation through it; reload.Validate smoke-tests through it.
func (e Ranked) Direct() Ranked {
	query, n := e.Query, e.N
	if query == nil {
		return e
	}
	columns := func(ctx context.Context, queries []int) (map[int][]float64, error) {
		if block := int64(len(queries)) * int64(n) * 8; block > maxColumnBlockBytes {
			return nil, fmt.Errorf("%w: %d nodes x %d rows is a %d MiB column block, over the %d MiB one request may ask for", ErrBadRequest, len(queries), n, block>>20, maxColumnBlockBytes>>20)
		}
		m, err := query(ctx, queries, 0, nil)
		if err != nil {
			return nil, err
		}
		if m == nil || !m.IsShape(n, len(queries)) {
			return nil, fmt.Errorf("serve: column pass did not return the %dx%d block", n, len(queries))
		}
		cols := make(map[int][]float64, len(queries))
		for j, q := range queries {
			cols[q] = m.Col(j, nil)
		}
		return cols, nil
	}
	if e.TopK == nil {
		e.TopK = func(ctx context.Context, queries []int, k, _ int) ([]topk.Item, TopKProvenance, error) {
			cols, err := columns(ctx, queries)
			if err != nil {
				return nil, TopKProvenance{}, err
			}
			return selectTopK(cols, queries, k), TopKProvenance{}, nil
		}
	}
	if e.Scores == nil {
		e.Scores = func(ctx context.Context, queries, targets []int) (*dense.Mat, error) {
			cols, err := columns(ctx, queries)
			if err != nil {
				return nil, err
			}
			m := dense.NewMat(len(queries), len(targets))
			for qi, q := range queries {
				for ti, t := range targets {
					m.Set(qi, ti, cols[q][t])
				}
			}
			return m, nil
		}
	}
	return e
}

// SwapRanked atomically installs a new engine generation and returns its
// number. Requests admitted after it returns are validated against e.N
// and answered by e; engine calls already in flight finish on the old
// engine (RCU-style: readers drain, they are never interrupted).
// SwapRanked then closes the old generation — it takes no new pins, and
// SwapRanked returns once every request pinned to it has been answered,
// which is the drain barrier reload.Candidate.Release relies on. Returns
// 0 without swapping when the server is already closed.
func (s *Server) SwapRanked(e Ranked) uint64 {
	e = e.Direct()
	if e.Bound == nil {
		e.Bound = func(int) float64 { return 0 }
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.closed {
		return 0
	}
	s.gen++
	old := s.be.Swap(newBackend(e, s.cfg.MaxPending, s.cfg.Workers, s.metrics))
	s.metrics.SetGeneration(s.gen)
	if old != nil {
		old.close() // graceful: pinned requests are answered by the old engine
	}
	return s.gen
}

// Generation returns the engine generation currently taking new requests.
func (s *Server) Generation() uint64 { return s.metrics.Generation() }

// N reports the node count of the current generation's graph.
func (s *Server) N() int { return s.be.Load().N }

// Metrics exposes the registry shared by every component of this server.
func (s *Server) Metrics() *Metrics { return s.metrics }

// MaxK reports the effective server-side k cap.
func (s *Server) MaxK() int { return s.cfg.MaxK }

// Close drains the server: admission stops (ErrClosed), and requests
// already pinned — waiting for a slot or in their engine call — are
// answered. Idempotent.
func (s *Server) Close() {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if be := s.be.Load(); be != nil {
		be.close()
	}
}

// MaxQueryNodes caps |Q|, the caller's query set, duplicates counted. A
// top-k scan tile is 64 rows × |Q| float64s per worker, so the cap holds
// it at 4 MiB; the paper's largest query set is 1000 nodes. A shard worker
// holds a router's broadcast to the same cap.
const MaxQueryNodes = 8192

// validate checks a request's node ids against one generation: the
// query set must be non-empty and at most MaxQueryNodes long, and every
// query and target in [0, n).
func validate(nodes, targets []int, n int) error {
	if len(nodes) == 0 {
		return fmt.Errorf("%w: empty query set", ErrBadRequest)
	}
	if len(nodes) > MaxQueryNodes {
		return fmt.Errorf("%w: %d query nodes exceeds %d per request", ErrBadRequest, len(nodes), MaxQueryNodes)
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

// Validation failures are counted and never pin a generation.
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

// admit gives the request its deadline, resolves the current generation
// and runs the request on it. When the resolved generation is superseded
// between the load and the pin — it rejects with ErrClosed but the server
// as a whole is still open — the request transparently retries on the
// successor, so a reload in progress never surfaces as a caller error.
// Each retry re-resolves the generation, and the returned backend is the
// one that actually answered (its Drift tags the response).
func (s *Server) admit(ctx context.Context, req request) (*backend, response, error) {
	ctx, cancel := s.deadline(ctx)
	defer cancel()
	req.ctx = ctx
	for {
		be := s.be.Load()
		// This may not be the generation the caller validated against: a
		// successor can serve a different graph, and a node id valid under
		// the superseded generation must fail here, not reach its engine.
		if err := validate(req.nodes, req.targets, be.N); err != nil {
			return be, response{}, s.reject(err)
		}
		resp, err := be.do(&req)
		if errors.Is(err, ErrClosed) && s.be.Load() != be {
			continue // lost the race with a swap; the successor is live
		}
		return be, resp, err
	}
}

// info tags a response with the generation's live ingestion drift and the
// shards a top-k had to do without, counting degraded answers in the
// metrics registry. The full-rank bound (the tier's quantization term) and
// drift are entrywise bounds on S, and cols is how many entries of S one
// reported score sums: 1 for a pair score, |Q| for a top-k aggregate
// (duplicates counted — they weigh double in the score too), so each is
// charged cols times. The missing-shard inflation arrives already scaled
// by |Q|. The terms compose additively into ErrorBound. Degraded says the
// answer was cut short — an exhausted drift budget or a missing shard —
// not that its bound is non-zero.
func (s *Server) info(be *backend, resp response, cols int) QueryInfo {
	info := QueryInfo{ErrorBound: float64(cols) * resp.bound}
	if be.Drift != nil {
		if d, exceeded := be.Drift(); d > 0 || exceeded {
			info.DriftBound = d
			info.ErrorBound += float64(cols) * d
			info.Degraded = exceeded
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

// Search returns the k nodes most similar to the query set (aggregate
// similarity for multi-node sets, each query node excluded), with response
// provenance: the advertised error bound and, when the answering engine
// call ran without some shards, the missing-shard count. k is clamped to n and rejected beyond Config.MaxK.
func (s *Server) Search(ctx context.Context, queries []int, k int) (SearchResult, error) {
	start := time.Now()
	be := s.be.Load()
	if err := validate(queries, nil, be.N); err != nil {
		return SearchResult{}, s.reject(err)
	}
	if k < 1 {
		return SearchResult{}, s.reject(fmt.Errorf("%w: k must be >= 1, got %d", ErrBadRequest, k))
	}
	if k > s.cfg.MaxK {
		return SearchResult{}, s.reject(fmt.Errorf("%w: k=%d exceeds server maximum %d", ErrBadRequest, k, s.cfg.MaxK))
	}
	if k > be.N {
		k = be.N // a graph has at most n candidates; clamp instead of erroring
	}
	served, resp, err := s.admit(ctx, request{nodes: queries, k: k})
	if err != nil {
		return SearchResult{}, err
	}
	s.metrics.Latency.Observe(time.Since(start).Seconds())
	return SearchResult{Matches: toMatches(resp.items), Info: s.info(served, resp, len(queries))}, nil
}

// maxScorePairs caps |Q| x |T| of one Score: both lengths are the caller's, and each pair is 32 B before JSON.
const maxScorePairs = 1 << 20

// Score returns the score of every (query, target) pair, with response
// provenance (see Search).
func (s *Server) Score(ctx context.Context, queries, targets []int) (PairsResult, error) {
	start := time.Now()
	if len(targets) == 0 {
		return PairsResult{}, s.reject(fmt.Errorf("%w: empty target set", ErrBadRequest))
	}
	if len(queries) > maxScorePairs/len(targets) {
		return PairsResult{}, s.reject(fmt.Errorf("%w: %d nodes x %d targets exceeds %d pairs per request", ErrBadRequest, len(queries), len(targets), maxScorePairs))
	}
	if err := validate(queries, targets, s.be.Load().N); err != nil {
		return PairsResult{}, s.reject(err)
	}
	served, resp, err := s.admit(ctx, request{nodes: queries, targets: targets})
	if err != nil {
		return PairsResult{}, err
	}
	out := make([]Pair, 0, len(queries)*len(targets))
	for qi, q := range queries {
		for ti, t := range targets {
			out = append(out, Pair{Query: q, Target: t, Score: resp.scores.At(qi, ti)})
		}
	}
	s.metrics.Latency.Observe(time.Since(start).Seconds())
	return PairsResult{Pairs: out, Info: s.info(served, resp, 1)}, nil
}

// selectTopK ranks out of materialised columns — Direct's top-k for a
// Query-only generation (csrserver never installs one). It mirrors
// csrplus.Engine.TopK / TopKMulti exactly: single queries exclude
// themselves; multi-source queries rank by the columns summed in query
// order (duplicates in the query set weigh double) excluding every query
// node — the sum the router's scan takes band by band, bit for bit.
func selectTopK(cols map[int][]float64, queries []int, k int) []topk.Item {
	if len(queries) == 1 {
		q := queries[0]
		return topk.Select(cols[q], k, q)
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
	return topk.SelectSet(agg, k, exclude)
}

func toMatches(items []topk.Item) []Match {
	out := make([]Match, len(items))
	for i, it := range items {
		out[i] = Match{Node: it.Node, Score: it.Score}
	}
	return out
}
