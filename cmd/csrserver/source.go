package main

// source.go is where serving generations come from. Every generation is
// a *shard.Router — a monolithic index is the K=1 router — wrapped by
// newCandidate; the two inputs differ in how the router's slots are
// filled and how long they live:
//
//   - one whole index per generation (local, -waldir): a FRESH K=1 router
//     over the index per generation. The index may be a memory-mapped
//     snapshot, so the generation owns it: Candidate.Release closes it
//     after serve's swap has drained the calls still running on it.
//   - remote slots that outlive reloads (-shardaddrs): ONE router for the
//     life of the process; a reload rolls the workers one at a time.
//     Nothing to release — remote slots own nothing here.

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"csrplus"

	"csrplus/internal/cache"
	"csrplus/internal/core"
	"csrplus/internal/ingest"
	"csrplus/internal/reload"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
	"csrplus/internal/topk"
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
	// boot did not read it (a router has none; a boot from a snapshot or an
	// -index file has no use for it).
	graphLoad time.Duration
}

// newCandidate describes one serving generation over rt. Every mode makes
// the same two engine calls, the router's scatter-gather top-k for /topk and
// its targeted-score scatter-gather for /similarity: each slot scans only
// the rows it owns (a band at a time into a selector, or just the target
// rows), so no n x |Q| block exists anywhere, nothing crosses a wire that a
// local slot would not also compute, and there is nothing for concurrent
// requests to share. Admission, shedding, degradation and drain are serve's.
// The closures are rebuilt per generation even when rt persists, so each
// swap installs a fresh serve generation — which is what invalidates every
// result cached before a roll.
func newCandidate(rt *shard.Router, meta reload.Meta, drift serve.DriftFunc, release func()) *reload.Candidate {
	ranked := serve.Ranked{N: rt.N(), Rank: rt.Rank(), Bound: rt.TruncationBound, Scores: rt.Scores, Drift: drift}
	ranked.TopK = func(ctx context.Context, queries []int, k, rank int) ([]topk.Item, serve.TopKProvenance, error) {
		res, err := rt.TopKTagged(ctx, queries, k, rank)
		return res.Items, serve.TopKProvenance{MissingShards: res.Missing, ErrorBound: res.ErrorBound}, err
	}
	meta.N, meta.Rank, meta.ShardStatus = rt.N(), rt.Rank(), rt.Status
	return &reload.Candidate{Ranked: ranked, Meta: meta, Release: release}
}

// openSource boots cfg's input.
func openSource(ctx context.Context, cfg *config, lru *cache.LRU) (*source, error) {
	if cfg.mode == modeRouter {
		return openRemote(ctx, cfg, lru)
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
// a mixed-generation router that still answers every query exactly, but the
// serve generation never bumped (the reload errored before the Manager's
// swap), so the result cache is cleared here: no entry cached before the
// roll may be served against a slot whose factors changed.
func openRemote(ctx context.Context, cfg *config, lru *cache.LRU) (*source, error) {
	start := time.Now()
	dialCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	addrs := strings.Split(cfg.shardAddrs, ",")
	engines := make([]*wire.RemoteEngine, len(addrs))
	slots := make([]shard.Slot, len(addrs))
	for i, a := range addrs {
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		opt := cfg.wire
		opt.Shard = i
		e, err := wire.Dial(dialCtx, a, opt)
		if err != nil {
			return nil, err
		}
		engines[i], slots[i] = e, e
		log.Printf("shard %d: %s serving nodes [%d, %d) generation %d", i, e.Addr(), e.Lo(), e.Hi(), e.Generation())
	}
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
	meta := reload.Meta{Source: "wire", Path: cfg.shardAddrs, Algorithm: csrplus.AlgoCSRPlus, BuildTime: time.Since(start)}
	next := func(ctx context.Context) (*reload.Candidate, error) {
		start := time.Now()
		if swapped, err := wire.RollWorkers(ctx, engines); err != nil {
			if swapped > 0 && lru != nil {
				lru.Clear()
				log.Printf("csrserver: rolling reload failed after %d slot swap(s); result cache cleared", swapped)
			}
			return nil, err
		}
		rolled := meta
		rolled.BuildTime = time.Since(start)
		return newCandidate(rt, rolled, nil, nil), nil
	}
	return &source{boot: newCandidate(rt, meta, nil, nil), next: next, engines: engines}, nil
}

// openIndex serves a fresh K=1 router over one whole index per
// generation. With -waldir the boot index's shape also anchors the ingest
// service, after which every reload rebuilds from the live graph.
func openIndex(ctx context.Context, w *wholeIndex) (*source, error) {
	start := time.Now()
	ix, meta, _, err := w.build(ctx)
	if err == nil {
		err = saveIndex(w.cfg, ix)
	}
	if err != nil {
		return nil, err
	}
	boot, err := w.candidate(ix, meta, nil, start)
	if err != nil {
		return nil, err
	}
	if w.cfg.mode == modeIngest {
		// The live graph starts from the flags' graph whatever the index
		// came from: an ingest boot always reads it.
		g, err := w.graph()
		if err == nil {
			w.ing, err = ingest.NewService(g.CoreGraph(), ix, ingest.Config{Dir: w.cfg.walDir, DriftBudget: w.cfg.driftBudget})
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
	return &source{boot: boot, next: w.load, ing: w.ing, graphLoad: w.graphLoad}, nil
}

// wholeIndex resolves one whole CSR+ index per call, off the serving
// path. Precedence mirrors the flags: the live graph once ingestion is
// up, else the snapshot directory's CURRENT, else a pinned -index file,
// else an in-process precompute over the graph. Only the last reads the
// graph the flags name; a loaded index is held to the flags' node count
// (cfg.n) instead. Calls never overlap: the boot makes the first, and
// reload.Manager runs one load at a time.
type wholeIndex struct {
	cfg *config
	ing *ingest.Service // set by openIndex once the boot index exists

	g         *csrplus.Graph // nil until graph has read it
	graphLoad time.Duration  // what that read cost
}

// graph returns the graph the flags name, reading or generating it on
// first use. A failure is returned and not remembered, so the next caller
// — a retry, the next SIGHUP — reads again.
func (w *wholeIndex) graph() (*csrplus.Graph, error) {
	if w.g == nil {
		start := time.Now()
		g, err := loadGraph(w.cfg)
		if err != nil {
			return nil, err
		}
		w.g, w.graphLoad = g, time.Since(start)
	}
	return w.g, nil
}

// m is the graph's edge count, 0 until the graph has been read: a boot
// that skipped it reports m = 0, as a router always has.
func (w *wholeIndex) m() int64 {
	if w.g == nil {
		return 0
	}
	return w.g.M()
}

// shape renders what is known of the graph for the log lines: n from the
// flags, m once the graph has been read.
func (w *wholeIndex) shape() string {
	if w.g == nil {
		return fmt.Sprintf("n=%d", w.cfg.n)
	}
	return fmt.Sprintf("n=%d m=%d", w.cfg.n, w.g.M())
}

// load is the reload.LoadFunc of a whole-index source.
func (w *wholeIndex) load(ctx context.Context) (*reload.Candidate, error) {
	start := time.Now()
	ix, meta, drift, err := w.build(ctx)
	if err != nil {
		return nil, err
	}
	return w.candidate(ix, meta, drift, start)
}

// candidate puts ix behind a fresh K=1 router that owns it: the
// generation's Release closes ix. The generation's smoke test
// (reload.Validate) reads a few cells of S and a top-k selector drops NaN
// rows silently, so every row of the factors is scanned here first, as a
// worker's boot and reload do per shard.
func (w *wholeIndex) candidate(ix *core.Index, meta reload.Meta, drift serve.DriftFunc, start time.Time) (*reload.Candidate, error) {
	rt, err := shard.NewRouterFromIndex(ix, 1)
	if err == nil {
		err = reload.ValidateShard(&ix.IndexShard)
	}
	if err != nil {
		_ = ix.Close()
		return nil, err
	}
	meta.BuildTime = time.Since(start)
	return newCandidate(rt, meta, drift, func() { _ = ix.Close() }), nil
}

// build produces the next whole index and, when it did not come from
// the snapshot directory, publishes it there — so an empty directory is
// primed with the boot index (the first SIGHUP has a CURRENT to resolve,
// operators can roll back to the generation the server came up with) and
// every live-graph rebuild lands on disk stamped with the WAL sequence
// it covers, so the next boot replays only the tail. drift is the
// generation's ingest drift closure, anchored at the cut its factors
// were built from (nil without ingestion).
func (w *wholeIndex) build(ctx context.Context) (ix *core.Index, meta reload.Meta, drift serve.DriftFunc, err error) {
	if err := ctx.Err(); err != nil {
		return nil, meta, nil, err
	}
	cfg := w.cfg
	var clocks []string // meta.Clocks, in the order the work ran
	// precompute runs Phase I over g in this process.
	precompute := func(g *csrplus.Graph) error {
		eng, err := csrplus.NewEngine(g, csrplus.Options{Rank: cfg.rank, Damping: cfg.damping})
		if err != nil {
			return err
		}
		ix, meta.M, meta.PeakBytes = coreIndex(eng), g.M(), eng.Stats().PeakBytes
		return nil
	}
	switch {
	case w.ing != nil:
		if !w.ing.Ready() {
			return nil, meta, nil, fmt.Errorf("ingest replay still in progress")
		}
		cutStart := time.Now()
		live, seq, d0, cerr := w.ing.Cut()
		if cerr != nil {
			return nil, meta, nil, cerr
		}
		clocks = append(clocks, fmt.Sprintf("graph=%v", clockSince(cutStart)))
		log.Printf("rebuilding index over live graph n=%d m=%d (wal seq %d, drift %.3g) ...", live.N(), live.M(), seq, d0)
		meta = reload.Meta{Source: "ingest-rebuild"}
		if err = precompute(csrplus.FromCoreGraph(live)); err == nil {
			ix.SetWalSeq(seq)
		}
		drift = w.ing.DriftFrom(d0)
	case cfg.snapDir != "" && snapshotAvailable(cfg.snapDir):
		log.Printf("loading snapshot directory %s over %s ...", cfg.snapDir, w.shape())
		var snap core.Snapshot
		var recovered bool
		ix, snap, recovered, err = core.RecoverSnapshot(cfg.snapDir)
		if recovered {
			log.Printf("WARNING: CURRENT unservable, recovered to snapshot generation %d (%s) — investigate and re-publish", snap.Gen, snap.Path)
		}
		meta = reload.Meta{Source: "snapshot", Path: snap.Path, SnapshotGen: snap.Gen, Recovered: recovered, M: w.m()}
	case cfg.indexPath != "":
		log.Printf("loading index %s over %s ...", cfg.indexPath, w.shape())
		ix, err = core.LoadIndex(cfg.indexPath)
		meta = reload.Meta{Source: "index", Path: cfg.indexPath, M: w.m()}
	default:
		var g *csrplus.Graph
		if g, err = w.graph(); err != nil {
			return nil, meta, nil, err
		}
		log.Printf("precomputing index over n=%d m=%d ...", g.N(), g.M())
		meta = reload.Meta{Source: "rebuild"}
		err = precompute(g)
	}
	if err == nil && ix.N() != cfg.n {
		// What csrplus.LoadEngine checks against a graph in hand, checked
		// against the node count the flags name with the graph unread.
		err = fmt.Errorf("index built for %d nodes, graph has %d", ix.N(), cfg.n)
		_ = ix.Close()
	}
	if err != nil {
		return nil, meta, nil, err
	}
	meta.Algorithm = csrplus.AlgoCSRPlus
	if ix.Stages() != (core.Stages{}) {
		nr, nc := ix.Support()
		clocks = append(clocks, fmt.Sprintf("precompute: support=%dx%d/%d %v", nr, nc, ix.N(), ix.Stages()))
	}
	if publishStart := time.Now(); cfg.snapDir != "" && meta.Source != "snapshot" {
		if tix, terr := tiered(ix, cfg.quantize); terr != nil {
			err = terr
		} else if meta.SnapshotGen, meta.Path, err = core.WriteSnapshot(cfg.snapDir, tix); err == nil {
			log.Printf("index published as snapshot generation %d (%s, tier %s)", meta.SnapshotGen, meta.Path, tierName(cfg.quantize))
			// The new generation is already durable and live, so a failure
			// to delete old ones is logged, never returned. A generation
			// still mapped by this process keeps its pages after the unlink.
			if _, perr := core.PruneSnapshots(cfg.snapDir, core.KeepSnapshots); perr != nil {
				log.Printf("WARNING: pruning old snapshot generations: %v", perr)
			}
		}
		clocks = append(clocks, fmt.Sprintf("publish=%v", clockSince(publishStart)))
	}
	if err != nil {
		_ = ix.Close()
		return nil, meta, nil, err
	}
	meta.Clocks = strings.Join(clocks, " ")
	return ix, meta, drift, nil
}

// clockSince is the time since t at the log lines' resolution.
func clockSince(t time.Time) time.Duration { return time.Since(t).Round(100 * time.Microsecond) }

// coreIndex unwraps the CSR+ index every engine precomputed here has: the
// server runs no other algorithm.
func coreIndex(eng *csrplus.Engine) *core.Index {
	ix, _ := eng.CoreIndex()
	return ix
}

// saveIndex honours -saveindex for the boot index.
func saveIndex(cfg *config, ix *core.Index) error {
	if cfg.saveIndex == "" {
		return nil
	}
	tix, err := tiered(ix, cfg.quantize)
	if err == nil {
		err = core.SaveIndex(tix, cfg.saveIndex)
	}
	if err != nil {
		return err
	}
	log.Printf("index persisted to %s (tier %s)", cfg.saveIndex, tierName(cfg.quantize))
	return nil
}

// tiered resolves ix at the -quantize tier, quantizing a copy when the tier
// is lossy: what csrplus.Engine.SaveIndexTier does for an engine.
func tiered(ix *core.Index, tier string) (*core.Index, error) {
	t, err := core.ParseTier(tier)
	if err != nil {
		return nil, err
	}
	return ix.Quantize(t)
}

// tierName renders the -quantize flag value for logs ("" is the exact
// f64 tier).
func tierName(q string) string {
	if q == "" {
		return "f64"
	}
	return q
}

// snapshotAvailable reports whether dir holds anything a boot could
// serve — a resolvable CURRENT or, failing that, any index-<gen>.csrx
// file crash recovery could fall back to. An empty or still-
// unprovisioned directory falls through to the other sources instead of
// failing the boot.
func snapshotAvailable(dir string) bool {
	if _, _, err := core.CurrentSnapshot(dir); err == nil {
		return true
	}
	snaps, err := core.ListSnapshots(dir)
	return err == nil && len(snaps) > 0
}

// loadGraph reads or generates the graph the flags name; parseFlags has
// held them to naming exactly one.
func loadGraph(cfg *config) (*csrplus.Graph, error) {
	if cfg.dataset != "" {
		return csrplus.GenerateDataset(cfg.dataset, cfg.dscale)
	}
	return csrplus.LoadGraph(cfg.graphPath, cfg.n)
}
