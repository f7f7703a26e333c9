package ingest

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"csrplus/internal/core"
	"csrplus/internal/graph"
)

// ErrBadEdge wraps every edge-validation failure of Append: out-of-range
// endpoints, non-positive or non-finite weights. Bad edges are rejected
// BEFORE they reach the log — the WAL only ever holds edges that applied
// cleanly once, which is what makes replay unconditional.
var ErrBadEdge = errors.New("ingest: bad edge")

// ErrNotReady is returned by Append before Recover has replayed the log:
// accepting writes with the tail unreplayed could hand out sequence
// numbers below already-logged ones.
var ErrNotReady = errors.New("ingest: recovery not finished")

// Edge is one streamed edge insertion. Weight is ignored (forced to 1)
// on unweighted graphs; on weighted graphs it must be positive and
// finite, and duplicate edges accumulate weight.
type Edge struct {
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Weight float64 `json:"weight,omitempty"`
}

// Config configures a Service.
type Config struct {
	// Dir is the WAL directory (created if missing).
	Dir string
	// WAL tunes the log segmentation; zero values use defaults.
	WAL WALOptions
	// DriftBudget is the entrywise drift bound past which the serving
	// factors are considered stale enough to rebuild: answers are marked
	// degraded and the rebuild trigger fires. <= 0 disables both (drift
	// still accrues and is reported honestly).
	DriftBudget float64
}

// Stats is the service's observable state for /stats and csrstat.
type Stats struct {
	Ready      bool    `json:"ready"`
	LastSeq    uint64  `json:"last_seq"`
	DurableSeq uint64  `json:"durable_seq"`
	LiveEdges  int64   `json:"live_edges"`
	Applied    int64   `json:"edges_since_factors"`
	GraphBytes int64   `json:"graph_bytes"`
	Drift      float64 `json:"drift_bound"`
	Base       float64 `json:"drift_baseline"`
	Budget     float64 `json:"drift_budget,omitempty"`
	Exceeded   bool    `json:"budget_exceeded"`
	Rebuilding bool    `json:"rebuilding"`
	TornBytes  int64   `json:"torn_bytes,omitempty"`
	// Replayed is how many logged edges Recover applied: the records past
	// the boot graph's WAL sequence.
	Replayed int64 `json:"replayed"`
}

// Service is the durable streaming-ingestion pipeline: validate →
// WAL-append (ack only after fsync) → apply to the incremental dynamic
// state → accrue drift → trigger a rebuild when the budget is spent.
//
// Lifecycle: NewService (cold, rejects appends) → Recover (opens the
// WAL, replays the records past the boot graph onto it, turns ready) →
// Append / Cut / rebuilds / PruneWAL → Close. The recovery split exists so
// a server can expose /readyz as not-ready while a long tail replays.
type Service struct {
	cfg      Config
	graphSeq uint64 // WAL sequence the boot graph already holds
	walSeq   uint64 // WAL sequence the boot factors already cover
	replayed int64  // records Recover applied

	mu  sync.Mutex // guards dyn, the baselines, and WAL-order of applies
	dyn *core.Dynamic
	wal *WAL
	// base is the serving generation's drift baseline: the total drift
	// at the cut its factors were built from (0 for the boot factors).
	// pendingBase stages the next cut's baseline until its rebuild
	// commits — a failed rebuild must leave base untouched. edgeBase and
	// pendingEdges do the same for the drift-charged edge count.
	base, pendingBase      float64
	edgeBase, pendingEdges int64

	driftBits   atomic.Uint64 // float64 bits of dyn's total drift
	lastApplied atomic.Uint64
	ready       atomic.Bool
	rebuilding  atomic.Bool
	trigger     atomic.Pointer[func()]
}

// NewService builds the cold service over a boot graph and the factors
// serving it. g nil boots from the graph ix carries — its snapshot's graph
// section, the live graph at ix's WAL sequence — so Recover replays only
// the records past that sequence: what every csrserver ingest boot does.
// Otherwise g must be the static base the factors' lineage started from,
// and Recover layers every streamed edge back on top of it. Of ix only the
// shape, the graph and the WAL sequence it covers are read; the service
// does not retain it.
func NewService(g *graph.Graph, ix *core.Index, cfg Config) (*Service, error) {
	dyn, err := core.NewDynamic(g, ix)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	s := &Service{cfg: cfg, walSeq: ix.WalSeq(), dyn: dyn}
	if g == nil {
		s.graphSeq = s.walSeq
	}
	return s, nil
}

// Recover opens the WAL and replays it in sequence order onto the
// dynamic state: records the boot graph holds (seq at or below its WAL
// sequence) are skipped; records the boot factors cover but the graph
// does not (only a static base graph has any) rebuild graph structure
// without charging drift; the tail past both is charged like live
// traffic. A log pruned past the boot graph's sequence has lost records
// this boot needs and is refused. On return the service is ready and
// appendable. Replay is idempotent against at-least-once delivery because
// unweighted duplicate edges are no-ops and the graph materialisation is
// order-canonical.
func (s *Service) Recover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		return errors.New("ingest: Recover called twice")
	}
	s.replayed = 0 // a Recover that failed part-way is retried from the top
	wal, err := Open(s.cfg.Dir, s.cfg.WAL, func(rec Record) error {
		if rec.Seq > s.graphSeq {
			src, dst := int(rec.Src), int(rec.Dst)
			if _, _, err := s.dyn.ApplyEdge(src, dst, rec.Weight, rec.Seq > s.walSeq); err != nil {
				return fmt.Errorf("replaying seq %d (%d -> %d): %w", rec.Seq, src, dst, err)
			}
			s.replayed++
		}
		s.lastApplied.Store(rec.Seq)
		return nil
	})
	if err != nil {
		return err
	}
	if p := wal.Pruned(); p > s.graphSeq {
		_ = wal.Close()
		return fmt.Errorf("ingest: the WAL was pruned through seq %d, and the boot graph holds only seq %d: boot from the snapshot directory it was pruned against", p, s.graphSeq)
	}
	// A log that ends below what the boot state covers continues past it.
	wal.Advance(max(s.graphSeq, s.walSeq))
	if s.lastApplied.Load() < s.graphSeq {
		s.lastApplied.Store(s.graphSeq)
	}
	s.wal = wal
	s.driftBits.Store(math.Float64bits(s.dyn.Drift()))
	s.ready.Store(true)
	return nil
}

// Ready reports whether Recover has completed: the serving process may
// advertise readiness only once the WAL tail is inside the graph.
func (s *Service) Ready() bool { return s.ready.Load() }

// SetRebuildTrigger installs the function fired (once per budget-exceed
// episode, on its own goroutine) when accrued drift passes the budget.
// The function must end by calling RebuildDone.
func (s *Service) SetRebuildTrigger(fn func()) { s.trigger.Store(&fn) }

// Append validates the batch, logs it durably (the call returns only
// after fsync), applies it to the dynamic state and returns the last
// assigned sequence plus the serving generation's total drift bound.
// On a validation error nothing is logged or applied. Batches are
// atomic in the log but independent as edges: replay applies each edge
// on its own.
func (s *Service) Append(edges []Edge) (seq uint64, drift float64, err error) {
	if !s.ready.Load() {
		return 0, 0, ErrNotReady
	}
	if len(edges) == 0 {
		return s.lastApplied.Load(), s.DriftBound(), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]Record, len(edges))
	for i, e := range edges {
		if e.Src < 0 || e.Src >= s.dyn.N() || e.Dst < 0 || e.Dst >= s.dyn.N() {
			return 0, 0, fmt.Errorf("%w: (%d, %d) outside [0, %d)", ErrBadEdge, e.Src, e.Dst, s.dyn.N())
		}
		w := e.Weight
		if s.dyn.Weighted() {
			if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
				return 0, 0, fmt.Errorf("%w: (%d, %d) weight %v must be positive and finite", ErrBadEdge, e.Src, e.Dst, w)
			}
		} else {
			w = 1
		}
		recs[i] = Record{Src: uint32(e.Src), Dst: uint32(e.Dst), Weight: w}
	}
	last, werr := s.wal.Append(recs)
	if werr != nil && last == 0 {
		// The batch never committed (a torn write was cut back to the
		// previous frame boundary): state and log still agree, the
		// caller just retries.
		return 0, 0, werr
	}
	// Apply. On werr == nil the batch is durable; on werr != nil with
	// last > 0 it reached the log but durability is unconfirmed, and the
	// state must cover everything a restart's replay might surface — so
	// apply anyway, then fail the call (the client retries; replayed and
	// retried duplicates are no-ops). Validation passed, so the only
	// conceivable apply error is a bug — surface it, the log and state
	// now disagree.
	for _, r := range recs {
		if _, _, err := s.dyn.ApplyEdge(int(r.Src), int(r.Dst), r.Weight, true); err != nil {
			return 0, 0, fmt.Errorf("ingest: logged edge failed to apply: %w", err)
		}
	}
	s.lastApplied.Store(last)
	total := s.dyn.Drift()
	s.driftBits.Store(math.Float64bits(total))
	gen := total - s.base
	if werr != nil {
		return 0, 0, fmt.Errorf("ingest: batch logged but durability unconfirmed, retry: %w", werr)
	}
	if s.cfg.DriftBudget > 0 && gen > s.cfg.DriftBudget {
		s.fireRebuild()
	}
	return last, gen, nil
}

// fireRebuild starts the installed rebuild trigger unless one is
// already in flight. Callers hold s.mu or run at boot before traffic.
func (s *Service) fireRebuild() {
	fn := s.trigger.Load()
	if fn == nil || *fn == nil {
		return
	}
	if s.rebuilding.CompareAndSwap(false, true) {
		go (*fn)()
	}
}

// TriggerIfExceeded fires the rebuild trigger when the replayed boot
// tail alone already spent the budget — the post-Recover check a server
// runs once its reload manager exists.
func (s *Service) TriggerIfExceeded() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.DriftBudget > 0 && math.Float64frombits(s.driftBits.Load())-s.base > s.cfg.DriftBudget {
		s.fireRebuild()
	}
}

// Cut materialises the live graph for a rebuild and returns it with the
// last applied sequence and the total drift at the cut. The returned
// drift is the new generation's baseline: pass it to DriftFrom for the
// candidate's closure. The cut baseline is staged; it becomes the
// serving baseline only when RebuildDone(true) commits it.
func (s *Service) Cut() (*graph.Graph, uint64, float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, err := s.dyn.MaterializeGraph()
	if err != nil {
		return nil, 0, 0, err
	}
	d := s.dyn.Drift()
	s.pendingBase, s.pendingEdges = d, s.dyn.Edges()
	return g, s.lastApplied.Load(), d, nil
}

// RebuildDone ends a rebuild episode. committed=true promotes the last
// Cut's drift baseline and edge count — the new generation's factors
// absorb everything up to that cut; committed=false leaves the old
// baselines (and the old generation's honest drift accounting) untouched
// so the next append past budget re-fires the trigger.
func (s *Service) RebuildDone(committed bool) {
	s.mu.Lock()
	if committed {
		s.base, s.edgeBase = s.pendingBase, s.pendingEdges
	}
	s.mu.Unlock()
	s.rebuilding.Store(false)
}

// DriftBound returns the serving generation's current drift bound.
func (s *Service) DriftBound() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return math.Float64frombits(s.driftBits.Load()) - s.base
}

// DriftFrom returns a closure reporting the drift accrued past the
// baseline d0 and whether it exceeds the budget — the serve.DriftFunc
// for a generation whose factors were cut at total drift d0. Cheap and
// concurrency-safe: called on every response.
func (s *Service) DriftFrom(d0 float64) func() (float64, bool) {
	budget := s.cfg.DriftBudget
	return func() (float64, bool) {
		d := math.Float64frombits(s.driftBits.Load()) - d0
		if d < 0 {
			d = 0
		}
		return d, budget > 0 && d > budget
	}
}

// Stats snapshots the observable state.
func (s *Service) Stats() Stats {
	st := Stats{
		Ready:      s.ready.Load(),
		LastSeq:    s.lastApplied.Load(),
		Budget:     s.cfg.DriftBudget,
		Rebuilding: s.rebuilding.Load(),
	}
	s.mu.Lock()
	st.Base = s.base
	st.Drift = math.Float64frombits(s.driftBits.Load()) - s.base
	if s.dyn != nil {
		st.LiveEdges = s.dyn.M()
		st.Applied = s.dyn.Edges() - s.edgeBase
		st.GraphBytes = s.dyn.Bytes()
	}
	st.Replayed = s.replayed
	if s.wal != nil {
		st.DurableSeq = s.wal.DurableSeq()
		st.TornBytes = s.wal.TornBytes()
	}
	s.mu.Unlock()
	st.Exceeded = st.Budget > 0 && st.Drift > st.Budget
	return st
}

// PruneWAL deletes the WAL segments whose records all lie at or below seq
// (WAL.Prune) and returns how many it deleted: the caller vouches that every
// snapshot generation a boot could serve holds them.
func (s *Service) PruneWAL(seq uint64) (int, error) {
	s.mu.Lock()
	wal := s.wal
	s.mu.Unlock()
	if wal == nil {
		return 0, ErrNotReady
	}
	return wal.Prune(seq)
}

// Close closes the WAL; further appends fail with ErrClosed.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}
