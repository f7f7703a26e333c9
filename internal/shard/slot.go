package shard

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/topk"
)

// Slot is one shard slot as the Router consumes it: the node range it
// owns, its shape metadata, and the per-shard query primitives the
// scatter–gather paths fan out to — each bounded by what the request asks
// for (k items, |rows| x |Q| scores, |nodes| F rows), never by the slot's
// row count, so every one of them can cross a wire. Two implementations
// exist — Local wraps an in-process *core.IndexShard behind an atomic
// generation pointer, and wire.RemoteEngine speaks the same contract to a
// csrserver -shardworker process over HTTP — so the router's exact merge,
// generation-keyed bound cache, and degradation tagging work identically
// in-process and across the wire.
//
// Each method resolves the slot's current generation independently (a
// remote process cannot pin a generation across calls), so a query whose
// F-row gather and partial legs straddle a rolling swap may combine rows
// from adjacent generations of one shard. Every generation is cut from a
// validated index, but when two generations come from different index
// builds such an answer mixes their factors and is exact for neither —
// as is every answer of a mixed-generation cluster (wire.RollWorkers).
// Nothing tags it: a generation number counts swaps, it does not name
// the build.
type Slot interface {
	// N, Lo, Hi, Rank and Damping mirror core.IndexShard: the global
	// node count, the owned range [Lo, Hi), and the factor shape. They
	// are fixed for the slot's lifetime — swaps replace factors, never
	// the partition or shape.
	N() int
	Lo() int
	Hi() int
	Rank() int
	Damping() float64

	// Generation identifies the factors currently serving. For a remote
	// slot this is the last generation observed in a response, so it
	// advances when the worker rolls — which is what keys the router's
	// bound cache.
	Generation() uint64

	// Bytes reports the resident factor bytes of the serving generation
	// (last observed, for remote slots), Stored how many of the slot's
	// Hi-Lo nodes it stores factor rows for — the rows a top-k scans; the
	// rest are implicit zero rows (core.IndexShard) — and Build the id of
	// the index build its rows come from.
	Bytes() int64
	Stored() int
	Build() uint64

	// URows gathers the F rows of the given nodes — all of which must be
	// owned by this slot — as a |nodes| x Rank matrix, row i for
	// nodes[i]: the query side of the scan. The returned float64s are
	// bitwise those of the shard's own URow.
	URows(ctx context.Context, nodes []int) (*dense.Mat, error)

	// PartialTopK returns the slot's top-k candidates among the nodes it
	// owns, scored against the gathered query rows uq, with every query
	// node excluded. Items carry global node ids. The int is ignored; it
	// stays only because the benchmark harness (csrload) wraps a Slot and
	// passes it (ROADMAP item 1 Step B).
	PartialTopK(ctx context.Context, queries []int, uq *dense.Mat, k, _ int) ([]topk.Item, error)

	// ScoreRows returns the scores of the owned global rows for every
	// query column, row-major |rows| x |queries| (out[i*|Q|+j] scores
	// rows[i] against queries[j]), bitwise-equal to the same elements of
	// the full column matrix.
	ScoreRows(ctx context.Context, queries []int, uq *dense.Mat, rows []int) ([]float64, error)

	// BoundTerms returns the per-column factor maxima (and, for
	// quantized tiers, the measured dequantisation errors), the Gram clamp
	// charge and the build id the router folds into the global bound.
	BoundTerms(ctx context.Context) (BoundTerms, error)
}

// BoundTerms is one shard's contribution to the global truncation bound:
// per-column |F| maxima over the shard's rows, plus the global per-column
// dequantisation error vector for quantized tiers (nil for the exact
// tier) and the index's Gram clamp charge. Build names the index build the
// rows come from.
type BoundTerms struct {
	FMax  []float64
	FErr  []float64
	Clamp float64
	Build uint64
}

// generation is one immutable shard engine generation: the loaded factors
// plus the number identifying them. Swapped as a unit so a reader always
// sees a shard and its generation number together.
//
// pins counts the calls computing on it, plus one for as long as it is the
// slot's serving generation. The count only reaches zero after a swap has
// retired it, and once at zero the generation can never be pinned again:
// that moment is when drained closes and its factors may be released.
type generation struct {
	gen     uint64
	sh      *core.IndexShard
	pins    atomic.Int64
	drained chan struct{}
}

func newGeneration(gen uint64, sh *core.IndexShard) *generation {
	g := &generation{gen: gen, sh: sh, drained: make(chan struct{})}
	g.pins.Store(1)
	return g
}

// tryPin takes a pin unless the generation has already drained.
func (g *generation) tryPin() bool {
	for {
		p := g.pins.Load()
		if p == 0 {
			return false
		}
		if g.pins.CompareAndSwap(p, p+1) {
			return true
		}
	}
}

// unpin drops a pin; the last one out closes drained.
func (g *generation) unpin() {
	if g.pins.Add(-1) == 0 {
		close(g.drained)
	}
}

// Local is the in-process Slot: one shard slot with PR 3's atomic-swap
// lifecycle scaled down to a single shard. Every read pins the generation
// it resolved and computes entirely on it, and Swap installs a replacement
// and then waits for the old generation's pins to drain — the RCU rule
// serve's swap follows — so the caller may release the retired factors
// (a worker unmaps its old shard file) the moment Swap returns.
// wire.Worker serves a Local over HTTP: a worker's reload is this swap.
type Local struct {
	cur    atomic.Pointer[generation]
	swapMu sync.Mutex // serialises swaps; readers never take it
}

// NewLocal boots the slot at generation 1.
func NewLocal(sh *core.IndexShard) *Local {
	l := &Local{}
	l.cur.Store(newGeneration(1, sh))
	return l
}

// pin resolves the serving generation and holds it. A reader that loses
// the race with a swap finds a drained generation and retries on the one
// the swap installed before dropping the old generation's serving pin.
func (l *Local) pin() *generation {
	for {
		if g := l.cur.Load(); g.tryPin() {
			return g
		}
	}
}

// Pin resolves the serving generation for a caller that computes on the
// shard directly (wire.Worker's handlers): the shard stays valid, and a
// Swap retiring it waits, until release is called.
func (l *Local) Pin() (sh *core.IndexShard, gen uint64, release func()) {
	g := l.pin()
	return g.sh, g.gen, g.unpin
}

// Swap installs sh as the next generation and returns its number once the
// generation it retired has drained: every call pinned to it has returned,
// and none can pin it again. The caller is responsible for validating that
// sh covers the same range and shape (wire.Worker.Reload does) and owns
// the release of the retired factors.
func (l *Local) Swap(sh *core.IndexShard) uint64 {
	l.swapMu.Lock()
	defer l.swapMu.Unlock()
	old := l.cur.Load()
	next := newGeneration(old.gen+1, sh)
	l.cur.Store(next)
	old.unpin()
	<-old.drained
	return next.gen
}

// N, Lo, Hi, Rank and Damping are fixed across swaps (wire.Worker.Reload
// validates replacements against them), so reading the current
// generation's copy is exact. Like Generation, Bytes and Stored they read
// the shard's header, never its factors, so they need no pin.
func (l *Local) N() int           { return l.cur.Load().sh.N() }
func (l *Local) Lo() int          { return l.cur.Load().sh.Lo() }
func (l *Local) Hi() int          { return l.cur.Load().sh.Hi() }
func (l *Local) Rank() int        { return l.cur.Load().sh.Rank() }
func (l *Local) Damping() float64 { return l.cur.Load().sh.Damping() }

// Generation returns the generation number serving new work.
func (l *Local) Generation() uint64 {
	return l.cur.Load().gen
}

// Bytes reports the serving generation's resident factor bytes.
func (l *Local) Bytes() int64 {
	return l.cur.Load().sh.Bytes()
}

// Stored reports how many rows the serving generation stores.
func (l *Local) Stored() int {
	return l.cur.Load().sh.Stored()
}

// Build reports the serving generation's index build.
func (l *Local) Build() uint64 {
	return l.cur.Load().sh.Build()
}

// URows gathers the F rows of owned nodes (see Slot).
func (l *Local) URows(ctx context.Context, nodes []int) (*dense.Mat, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g := l.pin()
	defer g.unpin()
	sh := g.sh
	out := dense.NewMat(len(nodes), sh.Rank())
	for i, q := range nodes {
		if !sh.Owns(q) {
			return nil, fmt.Errorf("%w: node %d outside slot [%d, %d)", ErrShard, q, sh.Lo(), sh.Hi())
		}
		copy(out.Row(i), sh.URow(q))
	}
	return out, nil
}

// PartialTopK selects the slot's top-k candidates (see Slot). The int is
// ignored, as Slot says.
func (l *Local) PartialTopK(ctx context.Context, queries []int, uq *dense.Mat, k, _ int) ([]topk.Item, error) {
	g := l.pin()
	defer g.unpin()
	return g.sh.PartialTopK(ctx, queries, uq, k)
}

// ScoreRows scores owned rows against the query columns (see Slot).
func (l *Local) ScoreRows(ctx context.Context, queries []int, uq *dense.Mat, rows []int) ([]float64, error) {
	g := l.pin()
	defer g.unpin()
	return g.sh.ScoreRows(ctx, queries, uq, rows)
}

// BoundTerms returns the serving generation's bound inputs (see Slot),
// copied out of its factors: the caller keeps them past the pin.
func (l *Local) BoundTerms(ctx context.Context) (BoundTerms, error) {
	if err := ctx.Err(); err != nil {
		return BoundTerms{}, err
	}
	g := l.pin()
	defer g.unpin()
	return BoundTerms{FMax: g.sh.ColMaxes(), FErr: slices.Clone(g.sh.QuantErrs()), Clamp: g.sh.ClampBound(), Build: g.sh.Build()}, nil
}
