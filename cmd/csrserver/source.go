package main

// source.go is where serving generations come from. Every generation is
// a *shard.Router — a monolithic index is the K=1 router — wrapped by
// newCandidate; the two inputs differ in how the router's slots are
// filled and how long they live:
//
//   - one whole index per generation (local, -waldir): a FRESH K=1 router
//     over the index per generation. A generation is its published file:
//     with -snapshots the index is the memory-mapped snapshot whether this
//     process found it there or has just written it, so the generation owns
//     it and Candidate.Release closes it after serve's swap has drained the
//     calls still running on it. Only an index nothing published (no
//     -snapshots) is served from the heap.
//   - remote slots that outlive reloads (-shardaddrs): ONE router for the
//     life of the process; a reload rolls the workers one at a time.
//     Nothing to release — remote slots own nothing here.

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"csrplus"

	"csrplus/internal/core"
	"csrplus/internal/ingest"
	"csrplus/internal/reload"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
	"csrplus/internal/wire"
)

// source is a booted input: the generation to start serving and the
// loader of every later one.
type source struct {
	boot *reload.Candidate
	next reload.LoadFunc
	// ing is the streaming-ingestion service (nil without -waldir), cold:
	// the caller runs Recover.
	ing *ingest.Service
	// engines are the remote slots' clients (nil when every slot is local).
	engines []*wire.RemoteEngine
	// graphLoad is what loading or generating the graph cost: 0 when the
	// boot did not read it (a router has none; a boot from a snapshot has
	// no use for it).
	graphLoad time.Duration
}

// newCandidate describes one serving generation over rt. Every mode makes
// the same two engine calls, the router's scatter-gather top-k for /topk and
// its targeted-score scatter-gather for /similarity: each slot scans only
// the rows it owns (a band at a time into a selector, or just the target
// rows), so no n x |Q| block exists anywhere, nothing crosses a wire that a
// local slot would not also compute, and there is nothing for concurrent
// requests to share. Admission, shedding and drain are serve's.
func newCandidate(rt *shard.Router, meta reload.Meta, drift serve.DriftFunc, release func()) *reload.Candidate {
	ranked := rt.Ranked()
	ranked.Drift = drift
	meta.N, meta.Rank, meta.ShardStatus = rt.N(), rt.Rank(), rt.Status
	return &reload.Candidate{Ranked: ranked, Meta: meta, Release: release}
}

// openSource boots cfg's input.
func openSource(ctx context.Context, cfg *config) (*source, error) {
	if cfg.mode == modeRouter {
		return openRemote(ctx, cfg)
	}
	if cfg.graphPath != "" {
		// The file may not be opened until a reload finds no snapshot: a
		// mistyped path fails the boot, not that reload.
		if _, err := os.Stat(cfg.graphPath); err != nil {
			return nil, fmt.Errorf("-graph: %w", err)
		}
	}
	return openIndex(ctx, &wholeIndex{cfg: cfg})
}

// openRemote dials every worker and assembles the router over the remote
// slots, which serves every generation: a reload rolls the workers one at a
// time through their own /admin/reload. A roll that failed part-way leaves
// a mixed-generation router that keeps answering, but from factors of two
// index builds, exact for neither and not tagged as such (wire's package
// comment); rolling again until every worker swaps fixes it. The boot makes one
// concurrent round trip per worker: the dials run at once, and priming the
// bound cache reuses the terms they fetched.
func openRemote(ctx context.Context, cfg *config) (*source, error) {
	start := time.Now()
	dialCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	addrs := strings.Split(cfg.shardAddrs, ",")
	engines := make([]*wire.RemoteEngine, len(addrs))
	// The first failed dial cancels the rest: one bad address fails the
	// boot at once rather than after every other dial's retries.
	var (
		wg      sync.WaitGroup
		failed  sync.Once
		dialErr error
	)
	for i, a := range addrs {
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		opt := cfg.wire
		opt.Shard = i
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := wire.Dial(dialCtx, a, opt)
			if err != nil {
				failed.Do(func() { dialErr = err; cancel() })
				return
			}
			engines[i] = e
		}()
	}
	wg.Wait()
	if dialErr != nil {
		return nil, dialErr
	}
	slots := make([]shard.Slot, len(engines))
	for i, e := range engines {
		slots[i] = e
		log.Printf("shard %d: %s serving nodes [%d, %d) generation %d mapped=%t", i, e.Addr(), e.Lo(), e.Hi(), e.Generation(), e.Mapped())
	}
	dialed := time.Now()
	rt, err := shard.NewRouterSlots(slots)
	if err != nil {
		return nil, err
	}
	// The bound cache must be primed while every worker is reachable:
	// degraded serving later needs the missing-shard bound, and a dead
	// worker is exactly when it cannot be fetched fresh.
	if err := rt.PrimeBound(); err != nil {
		return nil, fmt.Errorf("priming error bounds: %w", err)
	}
	meta := reload.Meta{Source: "wire", Path: cfg.shardAddrs, Algorithm: csrplus.AlgoCSRPlus, BuildTime: time.Since(start),
		Clocks: fmt.Sprintf("dial=%v prime=%v", clock(dialed.Sub(start)), clockSince(dialed))}
	// A worker, not the router, owns the index behind its slot, so it is
	// the one that says whether the slot is mapped.
	status := func() []shard.ShardStatus {
		slots := rt.Status()
		for i, e := range engines {
			slots[i].Mapped = e.Mapped()
		}
		return slots
	}
	remote := func(meta reload.Meta) *reload.Candidate {
		c := newCandidate(rt, meta, nil, nil)
		c.Meta.ShardStatus = status
		return c
	}
	next := func(ctx context.Context) (*reload.Candidate, error) {
		start := time.Now()
		if _, err := wire.RollWorkers(ctx, engines); err != nil {
			return nil, err
		}
		rolled := meta
		rolled.BuildTime, rolled.Clocks = time.Since(start), ""
		return remote(rolled), nil
	}
	return &source{boot: remote(meta), next: next, engines: engines}, nil
}

// openIndex serves a fresh K=1 router over one whole index per
// generation. With -waldir the boot index's shape also anchors the ingest
// service, after which every reload rebuilds from the live graph.
func openIndex(ctx context.Context, w *wholeIndex) (*source, error) {
	start := time.Now()
	b, err := w.build(ctx)
	if err != nil {
		return nil, err
	}
	boot, err := w.candidate(b, start)
	if err != nil {
		return nil, err
	}
	if w.cfg.mode == modeIngest {
		// The live graph starts from the flags' graph whatever the index
		// came from: an ingest boot always reads it, once — a build that
		// precomputed over it hands it on.
		if b.g == nil {
			b.g, b.graphLoad, err = w.readGraph()
		}
		if err == nil {
			w.ing, err = ingest.NewService(b.g.CoreGraph(), b.ix, ingest.Config{Dir: w.cfg.walDir, DriftBudget: w.cfg.driftBudget})
		}
		if err != nil {
			boot.Release()
			return nil, err
		}
		// Anchored at baseline zero: Recover charges exactly the WAL tail
		// past the snapshot's recorded sequence, which is exactly what the
		// boot factors don't cover.
		boot.Drift = w.ing.DriftFrom(0)
	}
	return &source{boot: boot, next: w.load, ing: w.ing, graphLoad: b.graphLoad}, nil
}

// wholeIndex resolves one whole CSR+ index per call, off the serving
// path. Precedence mirrors the flags: the live graph once ingestion is
// up, else the snapshot directory (its newest generation that loads),
// else an in-process precompute over the graph. Only the last reads the
// graph the flags name, and keeps it no longer than the call: a loaded
// index is held to the flags' node count (cfg.n) instead, and a
// generation rests at its published file, not at what it was computed
// from. Calls never overlap: the boot makes the first, and
// reload.Manager runs one load at a time.
type wholeIndex struct {
	cfg *config
	ing *ingest.Service // set by openIndex once the boot index exists

	// m is the edge count of the graph as last read, 0 until it has been: a
	// boot that skipped it reports m = 0, as a router always has.
	m int64
}

// readGraph reads or generates the graph the flags name and clocks it. The
// graph is the caller's for the one call that needs it; only its edge count
// is remembered.
func (w *wholeIndex) readGraph() (*csrplus.Graph, time.Duration, error) {
	start := time.Now()
	g, err := loadGraph(w.cfg)
	if err != nil {
		return nil, 0, err
	}
	w.m = g.M()
	return g, time.Since(start), nil
}

// shape renders what is known of the graph for the log lines: n from the
// flags, m once the graph has been read.
func (w *wholeIndex) shape() string {
	if w.m == 0 {
		return fmt.Sprintf("n=%d", w.cfg.n)
	}
	return fmt.Sprintf("n=%d m=%d", w.cfg.n, w.m)
}

// load is the reload.LoadFunc of a whole-index source.
func (w *wholeIndex) load(ctx context.Context) (*reload.Candidate, error) {
	start := time.Now()
	b, err := w.build(ctx)
	if err != nil {
		return nil, err
	}
	if b.g != nil {
		// A reload that found nothing on disk read the graph again.
		b.meta.Clocks = fmt.Sprintf("graph=%v %s", clock(b.graphLoad), b.meta.Clocks)
	}
	return w.candidate(b, start)
}

// candidate puts b.ix behind a fresh K=1 router that owns it: the
// generation's Release closes it. The generation's smoke test
// (reload.Validate) reads a few cells of S and a top-k selector drops NaN
// rows silently, so every row of the factors is scanned here first, as a
// worker's boot and reload do per shard.
func (w *wholeIndex) candidate(b *built, start time.Time) (*reload.Candidate, error) {
	ix := b.ix
	rt, err := shard.NewRouterFromIndex(ix, 1)
	if err == nil {
		err = reload.ValidateShard(&ix.IndexShard)
	}
	if err != nil {
		_ = ix.Close()
		return nil, err
	}
	b.meta.BuildTime = time.Since(start)
	c := newCandidate(rt, b.meta, b.drift, func() { _ = ix.Close() })
	c.Meta.ShardStatus = func() []shard.ShardStatus {
		slots := rt.Status()
		slots[0].Mapped = ix.Mapped()
		return slots
	}
	return c, nil
}

// built is one build's result: the index, which the caller owns, and how it
// came to be.
type built struct {
	ix   *core.Index
	meta reload.Meta
	// drift is the generation's ingest drift closure, anchored at the cut
	// its factors were built from (nil without ingestion).
	drift serve.DriftFunc
	// g is the graph the flags name and graphLoad what reading it cost, nil
	// and 0 unless this build had to read it.
	g         *csrplus.Graph
	graphLoad time.Duration
}

// build produces the next whole index and, when it did not come from
// the snapshot directory, publishes it there — so an empty directory is
// primed with the boot index (the first SIGHUP has a generation to load,
// operators can roll back to the generation the server came up with) and
// every live-graph rebuild lands on disk stamped with the WAL sequence
// it covers, so the next boot replays only the tail. A generation is its
// published file: a publish hands back the file as a boot from the
// directory would open it — mapped, every CRC checked before the file got
// its generation name — and that, not the heap factors it was written
// from, is what build returns.
func (w *wholeIndex) build(ctx context.Context) (*built, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := w.cfg
	b := &built{}
	var err error
	var clocks []string // meta.Clocks, in the order the work ran
	// precompute runs Phase I over g in this process.
	precompute := func(g *csrplus.Graph) error {
		eng, err := csrplus.NewEngine(g, csrplus.Options{Rank: cfg.rank, Damping: cfg.damping})
		if err != nil {
			return err
		}
		b.ix, b.meta.M, b.meta.PeakBytes = coreIndex(eng), g.M(), eng.Stats().PeakBytes
		return nil
	}
	switch {
	case w.ing != nil:
		if !w.ing.Ready() {
			return nil, fmt.Errorf("ingest replay still in progress")
		}
		cutStart := time.Now()
		live, seq, d0, cerr := w.ing.Cut()
		if cerr != nil {
			return nil, cerr
		}
		clocks = append(clocks, fmt.Sprintf("graph=%v", clockSince(cutStart)))
		log.Printf("rebuilding index over live graph n=%d m=%d (wal seq %d, drift %.3g) ...", live.N(), live.M(), seq, d0)
		b.meta = reload.Meta{Source: "ingest-rebuild"}
		if err = precompute(csrplus.FromCoreGraph(live)); err == nil {
			b.ix.SetWalSeq(seq)
		}
		b.drift = w.ing.DriftFrom(d0)
	case cfg.snapDir != "" && snapshotAvailable(cfg.snapDir):
		log.Printf("loading snapshot directory %s over %s ...", cfg.snapDir, w.shape())
		var snap core.Snapshot
		var recovered bool
		b.ix, snap, recovered, err = core.RecoverSnapshot(cfg.snapDir)
		if recovered {
			log.Printf("WARNING: skipped a newer snapshot generation (%v), recovered to generation %d (%s) — investigate and re-publish", snap.Skipped, snap.Gen, snap.Path)
		}
		b.meta = reload.Meta{Source: "snapshot", Path: snap.Path, SnapshotGen: snap.Gen, Recovered: recovered, M: w.m}
	default:
		if b.g, b.graphLoad, err = w.readGraph(); err != nil {
			return nil, err
		}
		log.Printf("precomputing index over n=%d m=%d ...", b.g.N(), b.g.M())
		b.meta = reload.Meta{Source: "rebuild"}
		err = precompute(b.g)
	}
	if err == nil && b.ix.N() != cfg.n {
		// What csrplus.LoadEngine checks against a graph in hand, checked
		// against the node count the flags name with the graph unread.
		err = fmt.Errorf("index built for %d nodes, graph has %d", b.ix.N(), cfg.n)
		_ = b.ix.Close()
	}
	if err != nil {
		return nil, err
	}
	b.meta.Algorithm = csrplus.AlgoCSRPlus
	if b.ix.Stages() != (core.Stages{}) {
		nr, nc := b.ix.Support()
		clocks = append(clocks, fmt.Sprintf("precompute: support=%dx%d/%d %v", nr, nc, b.ix.N(), b.ix.Stages()))
	}
	if cfg.snapDir != "" && b.meta.Source != "snapshot" {
		published, err := w.publish(b)
		if err != nil {
			_ = b.ix.Close()
			return nil, err
		}
		clocks = append(clocks, published)
	}
	b.meta.Clocks = strings.Join(clocks, " ")
	return b, nil
}

// publish writes b.ix to the snapshot directory and swaps b.ix for the
// generation as published (see build); the heap index it replaces is
// closed and left to the collector. It returns its clocks: publish=, and
// the read-back inside it as remap=.
func (w *wholeIndex) publish(b *built) (string, error) {
	cfg := w.cfg
	start := time.Now()
	served, snap, readBack, err := core.PublishSnapshot(cfg.snapDir, b.ix)
	if err != nil {
		return "", err
	}
	b.meta.SnapshotGen, b.meta.Path = snap.Gen, snap.Path
	log.Printf("index published as snapshot generation %d (%s)", snap.Gen, snap.Path)
	_ = b.ix.Close()
	b.ix = served
	// The new generation is already durable and live, so a failure to
	// delete old ones is logged, never returned. A generation still mapped
	// by this process keeps its pages after the unlink.
	if _, perr := core.PruneSnapshots(cfg.snapDir, core.KeepSnapshots); perr != nil {
		log.Printf("WARNING: pruning old snapshot generations: %v", perr)
	}
	return fmt.Sprintf("publish=%v remap=%v", clockSince(start), clock(readBack)), nil
}

// clock is d at the log lines' resolution, and clockSince the time since t.
func clock(d time.Duration) time.Duration  { return d.Round(100 * time.Microsecond) }
func clockSince(t time.Time) time.Duration { return clock(time.Since(t)) }

// coreIndex unwraps the CSR+ index every engine precomputed here has: the
// server runs no other algorithm.
func coreIndex(eng *csrplus.Engine) *core.Index {
	ix, _ := eng.CoreIndex()
	return ix
}

// snapshotAvailable reports whether dir holds a generation in the format
// this build serves. An empty, still-unprovisioned or stale-only directory
// falls through to the other sources instead of failing the boot.
func snapshotAvailable(dir string) bool {
	_, _, err := core.CurrentSnapshot(dir)
	return err == nil
}

// loadGraph reads or generates the graph the flags name; parseFlags has
// held them to naming exactly one.
func loadGraph(cfg *config) (*csrplus.Graph, error) {
	if cfg.dataset != "" {
		return csrplus.GenerateDataset(cfg.dataset, cfg.dscale)
	}
	return csrplus.LoadGraph(cfg.graphPath, cfg.n)
}
