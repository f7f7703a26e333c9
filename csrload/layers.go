package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"csrplus/internal/cache"
	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/ingest"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
	"csrplus/internal/topk"
	"csrplus/internal/wire"
)

// serverCache is csrserver's default -cache.
const serverCache = 1024

// replayRequests is how many requests of the workload's stream the traced
// run replays through the layers; multi-source passes other than the main
// pipeline replay a quarter of them, which keeps a traced run well inside
// the driver's per-run limit.
const replayRequests = 400

// layerProbe times the public functions of each layer, in-process, on the
// index the server published and the requests the server was sent. Every
// measurement is a span; the per-layer metrics are aggregates over spans
// by name.
type layerProbe struct {
	tr   *tracer
	ix   *core.Index
	g    *graph.Graph
	w    workload
	seed int64
	reqs []request
	tmp  string // scratch directory for snapshot and WAL writes
}

// sub is the request set of the secondary passes.
func (lp *layerProbe) sub() []request {
	if lp.w.q > 1 {
		return lp.reqs[:len(lp.reqs)/4]
	}
	return lp.reqs
}

// cacheKey mirrors serve's result-cache key, so the LRU is timed on keys of
// the length and shape the server hashes.
func cacheKey(req request) string {
	ids := make([]string, len(req.nodes))
	for i, q := range req.nodes {
		ids[i] = strconv.Itoa(q)
	}
	return fmt.Sprintf("g1|topk|%s|%d", strings.Join(ids, ","), req.k)
}

func toMatches(items []topk.Item) []serve.Match {
	out := make([]serve.Match, len(items))
	for i, it := range items {
		out[i] = serve.Match{Node: it.Node, Score: it.Score}
	}
	return out
}

// encodeResponse renders the /topk body the way csrserver's handler does.
func encodeResponse(req request, matches []serve.Match) ([]byte, error) {
	return json.Marshal(map[string]interface{}{"queries": req.nodes, "matches": matches})
}

// monoPipeline answers req the way a monolithic csrserver does on a cache
// miss — cache probe, engine pass, per-query column copies, aggregation,
// selection, cache fill, JSON — one span per layer call under one root.
func monoPipeline(tr *tracer, root string, ix *core.Index, lru *cache.LRU, scratch **dense.Mat, req request, idx int) ([]topk.Item, error) {
	rootID := tr.begin(root, 0, idx)
	defer tr.end(rootID)
	key := cacheKey(req)
	tr.time("cache.LRU.Get", rootID, idx, func() { lru.Get(key) })

	var s *dense.Mat
	var err error
	tr.time("core.Index.QueryRankInto", rootID, idx, func() {
		s, err = ix.QueryRankInto(context.Background(), req.nodes, 0, *scratch, nil)
	})
	if err != nil {
		return nil, err
	}
	*scratch = s
	cols := make([][]float64, len(req.nodes))
	tr.time("dense.Mat.Col", rootID, idx, func() {
		for j := range cols {
			cols[j] = s.Col(j, nil)
		}
	})
	var items []topk.Item
	if len(req.nodes) == 1 {
		tr.time("topk.Select", rootID, idx, func() { items = topk.Select(cols[0], req.k, req.nodes[0]) })
	} else {
		agg := make([]float64, ix.N())
		exclude := make(map[int]bool, len(req.nodes))
		tr.time("serve.aggregate", rootID, idx, func() {
			for _, col := range cols {
				for i, v := range col {
					agg[i] += v
				}
			}
			for _, q := range req.nodes {
				exclude[q] = true
			}
		})
		tr.time("topk.SelectSet", rootID, idx, func() { items = topk.SelectSet(agg, req.k, exclude) })
	}
	matches := toMatches(items)
	tr.time("cache.LRU.Put", rootID, idx, func() { lru.Put(key, matches) })
	tr.time("json.Marshal", rootID, idx, func() { _, err = encodeResponse(req, matches) })
	return items, err
}

// tracedSlot records a span around the two calls a router makes on a slot
// per top-k query. parent is the router span of the request in flight.
type tracedSlot struct {
	shard.Slot
	tr     *tracer
	prefix string
	parent *atomic.Int64
	req    *atomic.Int64
}

func (s tracedSlot) URows(ctx context.Context, nodes []int) (*dense.Mat, error) {
	id := s.tr.begin(s.prefix+".URows", int(s.parent.Load()), int(s.req.Load()))
	defer s.tr.end(id)
	return s.Slot.URows(ctx, nodes)
}

func (s tracedSlot) PartialTopK(ctx context.Context, queries []int, uq *dense.Mat, k, rnk int) ([]topk.Item, error) {
	id := s.tr.begin(s.prefix+".PartialTopK", int(s.parent.Load()), int(s.req.Load()))
	defer s.tr.end(id)
	return s.Slot.PartialTopK(ctx, queries, uq, k, rnk)
}

// routedPath is a scatter-gather router over traced slots.
type routedPath struct {
	tr          *tracer
	rt          *shard.Router
	parent, req atomic.Int64
}

// newRoutedPath wraps slots (local or remote) and assembles the router the
// way csrserver -shardaddrs does. A wrapped slot is not a *shard.Local, so
// the router fans out with a goroutine per slot, as it does over the wire.
func newRoutedPath(tr *tracer, prefix string, slots []shard.Slot) (*routedPath, error) {
	rp := &routedPath{tr: tr}
	traced := make([]shard.Slot, len(slots))
	for i, sl := range slots {
		traced[i] = tracedSlot{Slot: sl, tr: tr, prefix: prefix, parent: &rp.parent, req: &rp.req}
	}
	var err error
	rp.rt, err = shard.NewRouterSlots(traced)
	return rp, err
}

// pipeline answers req the way the wire router does: cache probe, router
// top-k (U-row gather, parallel partial top-k, merge), cache fill, JSON.
// It serves one request at a time.
func (rp *routedPath) pipeline(root string, lru *cache.LRU, req request, idx int) ([]topk.Item, error) {
	tr := rp.tr
	rootID := tr.begin(root, 0, idx)
	defer tr.end(rootID)
	key := cacheKey(req)
	tr.time("cache.LRU.Get", rootID, idx, func() { lru.Get(key) })
	routerID := tr.begin("shard.Router.TopKTagged", rootID, idx)
	rp.parent.Store(int64(routerID))
	rp.req.Store(int64(idx))
	res, err := rp.rt.TopKTagged(context.Background(), req.nodes, req.k, 0)
	tr.end(routerID)
	if err != nil {
		return nil, err
	}
	if res.Missing > 0 {
		return nil, fmt.Errorf("router answered with %d shards missing", res.Missing)
	}
	matches := toMatches(res.Items)
	tr.time("cache.LRU.Put", rootID, idx, func() { lru.Put(key, matches) })
	tr.time("json.Marshal", rootID, idx, func() { _, err = encodeResponse(req, matches) })
	return res.Items, err
}

// serverConfig is csrserver's serve.Config at its flag defaults.
func serverConfig() serve.Config {
	return serve.Config{
		MaxBatch:   32,
		Linger:     2 * time.Millisecond,
		MaxPending: 1024,
		Timeout:    5 * time.Second,
		Cache:      cache.New(serverCache),
	}
}

// searchPass times serve.Server.Search on an in-process server assembled
// like csrserver's: the column path over the index, or — when rt is set —
// the direct top-k path over a router.
func (lp *layerProbe) searchPass(rt *shard.Router) error {
	ranked := serve.Ranked{N: lp.ix.N(), Rank: lp.ix.Rank(), Bound: lp.ix.TruncationBound}
	if rt != nil {
		ranked.TopK = func(ctx context.Context, queries []int, k, rnk int) ([]topk.Item, serve.TopKProvenance, error) {
			res, err := rt.TopKTagged(ctx, queries, k, rnk)
			return res.Items, serve.TopKProvenance{MissingShards: res.Missing, ErrorBound: res.ErrorBound}, err
		}
	} else {
		ranked.Query = func(ctx context.Context, queries []int, rnk int, scratch *dense.Mat) (*dense.Mat, error) {
			return lp.ix.QueryRankInto(ctx, queries, rnk, scratch, nil)
		}
	}
	sv := serve.NewRanked(ranked, serverConfig())
	defer sv.Close()
	for i, req := range lp.sub() {
		var err error
		lp.tr.time("serve.Server.Search", 0, i, func() { _, err = sv.Search(context.Background(), req.nodes, req.k) })
		if err != nil {
			return err
		}
	}
	return nil
}

// shardPass times the in-process K=2 router and its slots one by one.
func (lp *layerProbe) shardPass() error {
	tr, ctx := lp.tr, context.Background()
	rt, err := shard.NewRouterFromIndex(lp.ix, wireShards)
	if err != nil {
		return err
	}
	shards, err := shard.Split(lp.ix, wireShards)
	if err != nil {
		return err
	}
	whole, err := lp.ix.Shard(0, lp.ix.N())
	if err != nil {
		return err
	}
	out := dense.NewMat(lp.ix.N(), lp.w.q)
	for i, req := range lp.sub() {
		tr.time("shard.Router.TopK", 0, i, func() { _, err = rt.TopK(ctx, req.nodes, req.k) })
		if err != nil {
			return err
		}
		uq := dense.NewMat(len(req.nodes), lp.ix.Rank())
		tr.time("core.IndexShard.URow", 0, i, func() {
			for j, q := range req.nodes {
				copy(uq.Row(j), shards[rt.Plan().Owner(q)].URow(q))
			}
		})
		for s, sh := range shards {
			local := shard.NewLocal(sh)
			var owned []int
			for _, q := range req.nodes {
				if sh.Owns(q) {
					owned = append(owned, q)
				}
			}
			if len(owned) > 0 {
				tr.time("shard.Local.URows", 0, i, func() { _, err = local.URows(ctx, owned) })
				if err != nil {
					return err
				}
			}
			tr.time("shard.Local.PartialTopK/"+strconv.Itoa(s), 0, i, func() { _, err = local.PartialTopK(ctx, req.nodes, uq, req.k, 0) })
			if err != nil {
				return err
			}
		}
		tr.time("core.IndexShard.PartialInto", 0, i, func() { err = whole.PartialInto(ctx, req.nodes, uq, 0, out) })
		if err != nil {
			return err
		}
	}
	return nil
}

// wirePass dials the live workers and replays the requests through a
// router over them, then times the float codec on the real payload.
func (lp *layerProbe) wirePass(root string, workerURLs []string) ([]*wire.RemoteEngine, error) {
	engines := make([]*wire.RemoteEngine, len(workerURLs))
	slots := make([]shard.Slot, len(workerURLs))
	for i, u := range workerURLs {
		e, err := wire.Dial(context.Background(), u, wire.Options{Shard: i})
		if err != nil {
			return nil, err
		}
		engines[i], slots[i] = e, e
	}
	rp, err := newRoutedPath(lp.tr, "wire.RemoteEngine", slots)
	if err != nil {
		return nil, err
	}
	lru := cache.New(serverCache)
	for i, req := range lp.sub() {
		if _, err := rp.pipeline(root, lru, req, i); err != nil {
			return nil, err
		}
	}
	if root == "request" {
		if err := lp.searchPass(rp.rt); err != nil {
			return nil, err
		}
	}
	payload := wire.F64s(make([]float64, lp.w.q*lp.ix.Rank()))
	for i := range payload {
		payload[i] = 1 / float64(i+3)
	}
	for i := 0; i < 200; i++ {
		var enc []byte
		var dec wire.F64s
		lp.tr.time("wire.F64s.MarshalJSON", 0, -1, func() { enc, err = payload.MarshalJSON() })
		if err != nil {
			return nil, err
		}
		lp.tr.time("wire.F64s.UnmarshalJSON", 0, -1, func() { err = dec.UnmarshalJSON(enc) })
		if err != nil {
			return nil, err
		}
	}
	return engines, nil
}

// kernelPass times dense and topk on fixed shapes, whatever the workload's
// own shape is: a kernel change must not trade |Q|=1 against |Q|=16.
func (lp *layerProbe) kernelPass(m map[string]float64) error {
	n, r := lp.ix.N(), lp.ix.Rank()
	z := dense.NewMat(n, r)
	for i := range z.Data {
		z.Data[i] = 1 / float64(i%97+1)
	}
	for _, q := range []int{1, 16} {
		uq := dense.NewMat(q, r)
		for i := range uq.Data {
			uq.Data[i] = 1 / float64(i%89+1)
		}
		out := dense.NewMat(n, q)
		name := "dense.MulTRankInto/q" + strconv.Itoa(q)
		for i := 0; i < 40; i++ {
			lp.tr.time(name, 0, -1, func() { dense.MulTRankInto(out, z, uq, r) })
		}
		p50 := median(lp.tr.durations(name))
		m["dense.mult_q"+strconv.Itoa(q)+"_p50_ms"] = p50
		m["dense.gflops_q"+strconv.Itoa(q)] = 2 * float64(n) * float64(r) * float64(q) / (p50 * 1e6)
	}

	// Selection runs on a real score column: the heap's work depends on
	// how the scores are ordered.
	col, err := lp.ix.QueryOne(lp.reqs[0].nodes[0])
	if err != nil {
		return err
	}
	exclude := map[int]bool{lp.reqs[0].nodes[0]: true}
	var lists [wireShards][]topk.Item
	for i := 0; i < 100; i++ {
		lp.tr.time("topk.Select/k10", 0, -1, func() { topk.Select(col, 10, lp.reqs[0].nodes[0]) })
		lp.tr.time("topk.SelectSet/k100", 0, -1, func() { topk.SelectSet(col, 100, exclude) })
	}
	half := n / wireShards
	for s := range lists {
		lists[s] = topk.SelectRange(col[s*half:(s+1)*half], lp.w.k, s*half, exclude)
	}
	for i := 0; i < 200; i++ {
		lp.tr.time("topk.Merge", 0, -1, func() { topk.Merge(lp.w.k, lists[:]...) })
	}
	m["topk.select_p50_us"] = 1e3 * median(lp.tr.durations("topk.Select/k10"))
	m["topk.select_set_p50_us"] = 1e3 * median(lp.tr.durations("topk.SelectSet/k100"))
	m["topk.merge_us"] = 1e3 * mean(lp.tr.durations("topk.Merge"))
	m["topk.select_allocs"] = testing.AllocsPerRun(10, func() { topk.Select(col, 10, lp.reqs[0].nodes[0]) })
	return nil
}

// setupPass times what a boot is made of: Phase I, the snapshot map and
// the snapshot publish.
func (lp *layerProbe) setupPass(snapPath string) error {
	var err error
	lp.tr.time("core.Precompute", 0, -1, func() {
		_, err = core.Precompute(lp.g, core.Options{Rank: rank, Damping: damping})
	})
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		var ix *core.Index
		lp.tr.time("core.MapIndex", 0, -1, func() { ix, err = core.MapIndex(snapPath) })
		if err != nil {
			return err
		}
		if err := ix.Close(); err != nil {
			return err
		}
	}
	for i := 0; i < 3; i++ {
		dir := filepath.Join(lp.tmp, "snap"+strconv.Itoa(i))
		lp.tr.time("core.WriteSnapshot", 0, -1, func() { _, _, err = core.WriteSnapshot(dir, lp.ix) })
		if err != nil {
			return err
		}
	}
	return nil
}

// ingestPass times the write path in a scratch directory: the WAL alone,
// the service on top of it, replay, and the dynamic-state update.
func (lp *layerProbe) ingestPass(m map[string]float64) error {
	const batches = 200
	tr, n := lp.tr, lp.ix.N()
	walDir := filepath.Join(lp.tmp, "wal")
	wal, err := ingest.Open(walDir, ingest.WALOptions{}, nil)
	if err != nil {
		return err
	}
	for i := 0; i < batches; i++ {
		recs := make([]ingest.Record, edgesPerBatch)
		for j, e := range edgeBatch(lp.seed, n, i) {
			recs[j] = ingest.Record{Src: uint32(e.Src), Dst: uint32(e.Dst), Weight: 1}
		}
		tr.time("ingest.WAL.Append", 0, -1, func() { _, err = wal.Append(recs) })
		if err != nil {
			return err
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	var walBytes int64
	segs, err := filepath.Glob(filepath.Join(walDir, "*.seg"))
	if err != nil {
		return err
	}
	for _, seg := range segs {
		st, err := os.Stat(seg)
		if err != nil {
			return err
		}
		walBytes += st.Size()
	}
	m["ingest.wal_bytes_per_edge"] = float64(walBytes) / (batches * edgesPerBatch)

	replayed := 0
	id := tr.begin("ingest.Open", 0, -1)
	wal, err = ingest.Open(walDir, ingest.WALOptions{}, func(ingest.Record) error { replayed++; return nil })
	tr.end(id)
	if err != nil {
		return err
	}
	if err := wal.Close(); err != nil {
		return err
	}
	m["ingest.replay_edges_per_s"] = float64(replayed) / (median(tr.durations("ingest.Open")) / 1e3)

	svc, err := ingest.NewService(lp.g, lp.ix, ingest.Config{Dir: filepath.Join(lp.tmp, "svcwal")})
	if err != nil {
		return err
	}
	if err := svc.Recover(); err != nil {
		return err
	}
	for i := 0; i < batches; i++ {
		edges := edgeBatch(lp.seed, n, i)
		rootID := tr.begin("write", 0, i)
		tr.time("ingest.Service.Append", rootID, i, func() { _, _, err = svc.Append(edges) })
		tr.end(rootID)
		if err != nil {
			return err
		}
	}
	st := svc.Stats()
	if err := svc.Close(); err != nil {
		return err
	}
	m["ingest.drift_bound_per_edge"] = st.Drift / float64(st.Applied)

	dyn, err := core.NewDynamic(lp.g, lp.ix)
	if err != nil {
		return err
	}
	id = tr.begin("core.Dynamic.ApplyEdge", 0, -1)
	for i := 0; i < batches; i++ {
		for _, e := range edgeBatch(lp.seed, n, i) {
			if _, _, err := dyn.ApplyEdge(e.Src, e.Dst, 1, true); err != nil {
				return err
			}
		}
	}
	tr.end(id)
	m["core.apply_edge_us"] = 1e3 * tr.durations("core.Dynamic.ApplyEdge")[0] / (batches * edgesPerBatch)
	m["ingest.wal_append_p50_ms"] = median(tr.durations("ingest.WAL.Append"))
	m["ingest.service_append_p50_ms"] = median(tr.durations("ingest.Service.Append"))
	return nil
}

// run executes every pass and returns the per-layer metrics the passes
// define, plus the p50 of the workload's own reconstructed request.
func (lp *layerProbe) run(snapPath string, workerURLs []string) (map[string]float64, []*wire.RemoteEngine, error) {
	m := map[string]float64{}
	tr := lp.tr
	wireRoot := "probe.wire"
	if lp.w.kind == topoWire {
		wireRoot = "request"
	} else {
		// The workload's own path: a monolithic server.
		lru := cache.New(serverCache)
		var scratch *dense.Mat
		for i, req := range lp.reqs {
			if _, err := monoPipeline(tr, "request", lp.ix, lru, &scratch, req, i); err != nil {
				return nil, nil, err
			}
		}
		if err := lp.searchPass(nil); err != nil {
			return nil, nil, err
		}
	}
	engines, err := lp.wirePass(wireRoot, workerURLs)
	if err != nil {
		return nil, nil, err
	}
	if lp.w.kind == topoWire {
		// Off the workload's path, but every layer is timed on every run.
		lru := cache.New(serverCache)
		var scratch *dense.Mat
		for i, req := range lp.sub() {
			if _, err := monoPipeline(tr, "probe.mono", lp.ix, lru, &scratch, req, i); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := lp.shardPass(); err != nil {
		return nil, nil, err
	}
	if err := lp.kernelPass(m); err != nil {
		return nil, nil, err
	}
	if err := lp.setupPass(snapPath); err != nil {
		return nil, nil, err
	}
	if err := lp.ingestPass(m); err != nil {
		return nil, nil, err
	}

	p50 := func(name string) float64 { return median(tr.durations(name)) }
	m["serve.search_p50_ms"] = p50("serve.Server.Search")
	m["cache.get_ns"] = 1e6 * mean(tr.durations("cache.LRU.Get"))
	m["cache.put_ns"] = 1e6 * mean(tr.durations("cache.LRU.Put"))
	m["csrserver.json_encode_us"] = 1e3 * p50("json.Marshal")
	m["core.query_p50_ms"] = p50("core.Index.QueryRankInto")
	m["core.col_copy_p50_ms"] = p50("dense.Mat.Col")
	m["core.gather_us"] = 1e3 * mean(tr.durations("core.IndexShard.URow"))
	m["core.partial_into_p50_ms"] = p50("core.IndexShard.PartialInto")
	m["core.index_bytes"] = float64(lp.ix.Bytes())
	m["core.precompute_s"] = tr.durations("core.Precompute")[0] / 1e3
	m["core.map_index_ms"] = p50("core.MapIndex")
	m["core.write_snapshot_ms"] = p50("core.WriteSnapshot")
	m["shard.router_topk_p50_ms"] = p50("shard.Router.TopK")
	m["shard.urows_us"] = 1e3 * mean(tr.durations("shard.Local.URows"))
	m["shard.router_self_p50_ms"] = median(tr.selfTimes("shard.Router.TopKTagged"))
	var slotTimes [wireShards][]float64
	var all []float64
	for s := range slotTimes {
		slotTimes[s] = tr.durations("shard.Local.PartialTopK/" + strconv.Itoa(s))
		all = append(all, slotTimes[s]...)
	}
	m["shard.partial_topk_p50_ms"] = median(all)
	var skew []float64
	for i := range slotTimes[0] {
		slowest, sum := 0.0, 0.0
		for s := range slotTimes {
			slowest = max(slowest, slotTimes[s][i])
			sum += slotTimes[s][i]
		}
		skew = append(skew, slowest/(sum/wireShards))
	}
	m["shard.fanout_skew"] = mean(skew)
	rt, err := shard.NewRouterFromIndex(lp.ix, wireShards)
	if err != nil {
		return nil, nil, err
	}
	req0 := lp.reqs[0]
	m["shard.topk_allocs"] = testing.AllocsPerRun(10, func() { _, _ = rt.TopK(context.Background(), req0.nodes, req0.k) })
	m["wire.urows_rtt_p50_ms"] = p50("wire.RemoteEngine.URows")
	m["wire.partial_topk_rtt_p50_ms"] = p50("wire.RemoteEngine.PartialTopK")
	m["wire.f64s_encode_us"] = 1e3 * p50("wire.F64s.MarshalJSON")
	m["wire.f64s_decode_us"] = 1e3 * p50("wire.F64s.UnmarshalJSON")
	uq := make(wire.F64s, lp.w.q*lp.ix.Rank())
	reqBody, err := json.Marshal(wire.QueryRequest{Queries: req0.nodes, UQ: uq, K: req0.k})
	if err != nil {
		return nil, nil, err
	}
	respBody, err := json.Marshal(wire.QueryResponse{Generation: 1, Nodes: make([]int, req0.k), Scores: make(wire.F64s, req0.k)})
	if err != nil {
		return nil, nil, err
	}
	m["wire.request_bytes"] = float64(len(reqBody))
	m["wire.response_bytes"] = float64(len(respBody))
	m["trace.request_p50_ms"] = p50("request")
	return m, engines, nil
}
