// Package reload implements the zero-downtime index lifecycle around a
// serve.Server: a Manager loads or rebuilds a candidate engine in the
// background, validates it (shape sanity plus a smoke query against probe
// nodes), and atomically swaps it in as a new generation while in-flight
// engine calls finish on the old one. The paper's phase split makes this
// the natural operational shape — phase I (the rank-r decomposition) is the
// expensive part, so it must run off the serving path; phase II is cheap
// and keeps answering from the old index until the instant of the swap.
//
// A reload that fails at any stage — load error, implausible candidate,
// failing smoke query — leaves the serving generation untouched: the old
// engine cannot be torn down before its replacement has proven it can
// answer queries. A reload is one attempt: every source it loads from
// fails the same way until someone publishes again (or, for a router,
// retries its own worker calls), so the caller re-triggers it rather than
// the Manager re-running it on a timer. Five consecutive failed reloads
// open a circuit breaker that fails further triggers fast for ten
// seconds, so a persistently broken snapshot source cannot keep burning
// load attempts.
//
// Reload triggers coalesce rather than queue: a SIGHUP or admin reload
// arriving while another reload is in flight marks one pending re-run
// (returning ErrCoalesced) and the in-flight reload runs the lifecycle
// once more when it finishes — a trigger storm collapses into at most one
// extra pass, and no trigger is silently lost.
package reload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"csrplus/internal/fault"
	"csrplus/internal/retry"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
)

// Errors returned by Reload. ErrCoalesced means another reload holds the
// lifecycle lock and this trigger was folded into a pending re-run (the
// reload WILL happen; the caller need not retry). ErrBreakerOpen means
// consecutive failures opened the circuit breaker and the trigger was
// dropped without a load attempt. ErrValidation wraps every
// candidate-rejection reason.
var (
	ErrCoalesced   = errors.New("reload: reload in progress, trigger coalesced into a pending re-run")
	ErrBreakerOpen = errors.New("reload: circuit breaker open after consecutive failures")
	ErrValidation  = errors.New("reload: candidate failed validation")
)

// Candidate is a fully built engine generation proposed for swap-in: the
// serve.Ranked contract the server will install, plus provenance and the
// hook that frees what the generation pins. The engine must be ready to
// serve the moment Reload validates it — all expensive work (index build,
// snapshot load) happens before the Candidate is returned by a LoadFunc.
// A Drift closure must be anchored to THIS candidate's cut point — a
// failed or refused swap leaves the previous generation's closure
// untouched.
type Candidate struct {
	serve.Ranked
	// Meta describes the candidate for /admin/index and logs.
	Meta Meta
	// Release, when set, frees resources the generation pins for its
	// whole serving lifetime — typically the munmap of a memory-mapped
	// v5 snapshot (core.MapIndex), whose factor slices alias the mapping
	// and must stay valid for every in-flight query. The Manager calls
	// it exactly once: immediately if the candidate fails validation or
	// the swap is refused, otherwise only after a LATER generation's
	// swap has returned — serve's swap blocks until every request pinned
	// to the old generation has returned, whichever engine call it made,
	// so by then no query can still touch the old factors.
	// Release must be idempotent-safe in its own right only against the
	// Manager calling it once; core.(*Index).Close already tolerates
	// double closes for defence in depth.
	Release func()
}

// Meta is the provenance of one engine generation.
type Meta struct {
	// Source is where the engine came from: "snapshot" (loaded from the
	// snapshot directory), "rebuild" (precomputed over the flags' graph),
	// "ingest-rebuild" (precomputed over the live graph) or "wire" (remote
	// slots).
	Source string `json:"source"`
	// Path is the snapshot file the generation serves (the one it was
	// loaded from, or published as), the worker addresses of "wire", and ""
	// for an in-process build nothing published.
	Path string `json:"path,omitempty"`
	// SnapshotGen is the generation parsed from a versioned snapshot
	// name (core.ParseSnapshotName), 0 otherwise. Distinct from the
	// serving generation: snapshots number index files on disk, the
	// server numbers swaps.
	SnapshotGen uint64 `json:"snapshot_gen,omitempty"`
	// Recovered reports that a newer generation in the served format
	// failed to load — recovery fell back to an older one and the
	// operator should investigate (core.RecoverSnapshot).
	Recovered bool `json:"recovered,omitempty"`
	// Algorithm, N, M, Rank describe the engine (csrplus.Engine.Stats); M is
	// the edge count its index carries, 0 for a router (shard files carry none).
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	M         int64  `json:"m"`
	Rank      int    `json:"rank,omitempty"`
	// ShardStatus reports the generation's shard slots — ranges, live
	// slot generations, resident bytes — for status endpoints
	// (shard.(*Router).Status; a monolithic index is one slot).
	ShardStatus func() []shard.ShardStatus `json:"-"`
	// BuildTime is the candidate's load/precompute wall time.
	BuildTime time.Duration `json:"-"`
	// Clocks renders, for the log line that announces the generation, where
	// BuildTime went: the graph cut and the snapshot publish when there was
	// one, and for an in-process precompute the support it decomposed and
	// its per-stage split (core.Stages.String). "" when none applies.
	Clocks string `json:"-"`
	// PeakBytes is the build's analytic memory peak, 0 when unknown.
	PeakBytes int64 `json:"peak_bytes,omitempty"`
}

// Status describes the generation currently taking traffic.
type Status struct {
	Generation uint64 `json:"generation"`
	Meta
	BuildSeconds float64   `json:"build_seconds"`
	SwappedAt    time.Time `json:"swapped_at"`
}

// LoadFunc produces the next candidate generation. It runs on the
// reloading goroutine (SIGHUP handler, admin endpoint), never on the
// serving path, and may take as long as an index build takes; it should
// honour ctx for cancellation between expensive steps.
type LoadFunc func(ctx context.Context) (*Candidate, error)

// The circuit breaker opens after breakerThreshold consecutive failed
// reloads and then rejects triggers for breakerCooldown before admitting
// one probe reload.
const (
	breakerThreshold = 5
	breakerCooldown  = 10 * time.Second
)

// Breaker is a point-in-time view of the circuit breaker for status
// endpoints (/readyz, /stats).
type Breaker struct {
	// Open reports the breaker is rejecting triggers right now.
	Open bool `json:"open"`
	// ConsecutiveFailures counts failed reload runs since the last
	// success.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// RetryAt is when an open breaker next admits a probe run; nil (and
	// absent from the JSON) when closed.
	RetryAt *time.Time `json:"retry_at,omitempty"`
}

// Manager owns the reload lifecycle for one serve.Server. Reloads are
// serialised; a trigger landing mid-reload coalesces into one pending
// re-run instead of queueing or getting lost (a SIGHUP storm must not
// stack index builds). Current is lock-free for status endpoints.
type Manager struct {
	server *serve.Server
	load   LoadFunc

	mu      sync.Mutex // held for the whole load→validate→swap sequence
	pending atomic.Bool
	cur     atomic.Pointer[Status]
	// release frees the resources pinned by the generation currently
	// serving (Candidate.Release of the last swapped candidate, or the
	// boot generation's via SetBootRelease). Guarded by mu: it is only
	// read and replaced inside the serialised lifecycle.
	release func()

	clock   retry.Clock // retry.System outside tests
	breaker retry.Breaker
}

// New wires a Manager over a server already serving its boot generation,
// recording boot as the meta of the current status.
func New(server *serve.Server, load LoadFunc, boot Meta) *Manager {
	m := &Manager{
		server: server, load: load, clock: retry.System,
		breaker: retry.Breaker{Threshold: breakerThreshold, Cooldown: breakerCooldown, Clock: retry.System},
	}
	m.cur.Store(&Status{
		Generation:   server.Generation(),
		Meta:         boot,
		BuildSeconds: boot.BuildTime.Seconds(),
		SwappedAt:    m.clock.Now(),
	})
	return m
}

// Current returns the status of the generation serving new requests.
func (m *Manager) Current() Status { return *m.cur.Load() }

// SetBootRelease registers the release hook of the boot generation —
// the engine the server was constructed with, which never went through
// a Candidate. The Manager calls it after the first successful reload
// has swapped the boot engine out and drained it, exactly like a
// candidate's Release. Call it once, before the first Reload; later
// calls would leak whatever the previous hook pinned.
func (m *Manager) SetBootRelease(release func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.release = release
}

// Breaker returns the circuit breaker's current state. An open breaker
// past its cooldown admits one probe run (half-open); the probe's
// outcome re-opens or resets it.
func (m *Manager) Breaker() Breaker {
	fails, retryAt := m.breaker.State()
	if retryAt.IsZero() {
		return Breaker{ConsecutiveFailures: fails}
	}
	return Breaker{Open: true, ConsecutiveFailures: fails, RetryAt: &retryAt}
}

// Reload runs one lifecycle pass: load a candidate, validate it, swap it
// in. On any failure the previous generation keeps serving and the
// returned Status still describes it.
// The whole sequence runs on the calling goroutine — callers wanting an
// async reload wrap it in one. A Reload entered while another is in
// flight returns ErrCoalesced immediately; the in-flight reload runs the
// lifecycle again before releasing the lock — even when its own ctx has
// ended by then — so the trigger is honoured, just not by its own caller.
// The returned Status and error are those of the last pass run.
func (m *Manager) Reload(ctx context.Context) (Status, error) {
	if !m.mu.TryLock() {
		m.pending.Store(true)
		return m.Current(), ErrCoalesced
	}
	defer m.mu.Unlock()

	st, err := m.run(ctx)
	// Honour triggers that coalesced while this run was in flight: each
	// pass consumes the pending mark, and a mark set mid-pass (the world
	// may have changed again) schedules one more. Those passes are owed to
	// the triggers, not to this caller, so they run without its
	// cancellation: a caller that gives up ends only its own pass.
	owed := context.WithoutCancel(ctx)
	for m.pending.Swap(false) {
		st, err = m.run(owed)
	}
	return st, err
}

// run is one reload run: the breaker gate, then one lifecycle pass. A
// pass that fails because ctx ended is not charged to the breaker: a
// caller giving up is no evidence that the source is broken.
func (m *Manager) run(ctx context.Context) (Status, error) {
	metrics := m.server.Metrics()
	if b := m.Breaker(); b.Open {
		metrics.ReloadFailed()
		return m.Current(), fmt.Errorf("%w (retry after %s)", ErrBreakerOpen, b.RetryAt.Sub(m.clock.Now()).Round(time.Millisecond))
	}
	st, err := m.runOnce(ctx)
	if err == nil {
		m.breaker.Record(false)
		return st, nil
	}
	if ctx.Err() == nil {
		m.breaker.Record(true)
	}
	metrics.ReloadFailed()
	return st, err
}

// runOnce is a single load→validate→swap pass.
func (m *Manager) runOnce(ctx context.Context) (Status, error) {
	metrics := m.server.Metrics()
	start := m.clock.Now()
	if err := fault.Hit(fault.SiteReloadLoad); err != nil {
		return m.Current(), fmt.Errorf("reload: loading candidate: %w", err)
	}
	cand, err := m.load(ctx)
	if err != nil {
		return m.Current(), fmt.Errorf("reload: loading candidate: %w", err)
	}
	if err := Validate(cand); err != nil {
		// The candidate never took traffic, so its resources (a v5
		// mapping it pinned) can be freed right now. Validate rejects a
		// nil candidate, hence the extra nil check.
		if cand != nil && cand.Release != nil {
			cand.Release()
		}
		return m.Current(), err
	}
	gen := m.server.SwapRanked(cand.Ranked)
	if gen == 0 {
		if cand.Release != nil {
			cand.Release()
		}
		return m.Current(), fmt.Errorf("reload: %w", serve.ErrClosed)
	}
	// The swap has returned, which means the previous generation's pins
	// are drained: no in-flight query references its factors any more,
	// so this is the first moment its pinned resources (mmap) may be
	// released. m.mu is held for the whole lifecycle, serialising
	// access to m.release.
	if m.release != nil {
		m.release()
	}
	m.release = cand.Release
	st := Status{
		Generation:   gen,
		Meta:         cand.Meta,
		BuildSeconds: cand.Meta.BuildTime.Seconds(),
		SwappedAt:    m.clock.Now(),
	}
	m.cur.Store(&st)
	metrics.ReloadSucceeded(m.clock.Now().Sub(start).Seconds())
	return st, nil
}

// probeNodes picks a few spread-out node ids to smoke-query: the ends and
// middle catch off-by-one shape bugs that a single probe would miss.
func probeNodes(n int) []int {
	probes := []int{0}
	if n > 2 {
		probes = append(probes, n/2)
	}
	if n > 1 {
		probes = append(probes, n-1)
	}
	return probes
}

// Validate smoke-tests a candidate before it may take traffic: the shape
// must be plausible and real engine calls against probe nodes (at full
// rank, the only rank real traffic is served at) must come back with the right
// dimensions, finite scores, and a positive self-similarity (CoSimRank
// scores a node against itself as 1 plus a damped correction, so a zero
// or negative diagonal means the factors are garbage — an index loaded
// against the wrong graph orientation, a cluster whose shards disagree
// about the graph). The scores are the probes x probes matrix of the
// generation's Scores — nine cells, which is why the factors' every-row
// scan is ValidateShard's — and every probe additionally answers a
// single-source top-k through its TopK — the gather, fan-out and merge a
// router runs per request — which no shard may sit out. Both calls are
// taken through serve.Ranked.Direct, exactly as the server will install
// them, so a Query-only generation is smoke-tested through the same
// adapter that will serve it. This is the gate that turns "the file
// parsed" into "the engine answers"; CRC and header checks live below it,
// in core's snapshot loaders (LoadIndex, LoadShard) and the mapper they
// load through.
func Validate(c *Candidate) error {
	if c == nil || (c.Query == nil && c.TopK == nil) {
		return fmt.Errorf("%w: no query engine", ErrValidation)
	}
	if c.N <= 0 {
		return fmt.Errorf("%w: implausible node count %d", ErrValidation, c.N)
	}
	e, ctx, probes := c.Ranked.Direct(), context.Background(), probeNodes(c.N)
	if e.Scores != nil {
		// mat holds the probes' scores: row i is probe i, column j probe j.
		mat, err := e.Scores(ctx, probes, probes, 0)
		switch {
		case err != nil:
			return fmt.Errorf("%w: smoke query: %v", ErrValidation, err)
		case mat == nil:
			return fmt.Errorf("%w: smoke query returned no matrix", ErrValidation)
		case !mat.IsShape(len(probes), len(probes)):
			return fmt.Errorf("%w: smoke query shape %dx%d, want %dx%d",
				ErrValidation, mat.Rows, mat.Cols, len(probes), len(probes))
		}
		for j, q := range probes {
			for i, p := range probes {
				v := mat.At(i, j)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("%w: non-finite score %v for pair (%d, %d)", ErrValidation, v, p, q)
				}
				if p == q && v <= 0 {
					return fmt.Errorf("%w: self-similarity of node %d is %v, want > 0", ErrValidation, q, v)
				}
			}
		}
	}
	for _, q := range probes {
		items, prov, err := e.TopK(ctx, []int{q}, 3, 0)
		if err != nil {
			return fmt.Errorf("%w: top-k probe of node %d: %v", ErrValidation, q, err)
		}
		if prov.MissingShards > 0 {
			return fmt.Errorf("%w: top-k probe of node %d answered with %d shards missing", ErrValidation, q, prov.MissingShards)
		}
		for _, it := range items {
			if math.IsNaN(it.Score) || math.IsInf(it.Score, 0) {
				return fmt.Errorf("%w: non-finite score %v for pair (%d, %d)", ErrValidation, it.Score, it.Node, q)
			}
			if it.Node == q {
				return fmt.Errorf("%w: top-k of node %d contains the query node", ErrValidation, q)
			}
		}
	}
	return nil
}
