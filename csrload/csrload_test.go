package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"csrplus"

	"csrplus/internal/cache"
	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/serve"
	"csrplus/internal/shard"
	"csrplus/internal/topk"
)

// renderStreams is everything a seed determines, as bytes.
func renderStreams(seed int64) []byte {
	var b bytes.Buffer
	for i := 0; i < 2000; i++ {
		b.WriteString(readRequest(seed, 131072, 1, 10, i).path())
		b.WriteString(readRequest(seed, 131072, 16, 100, i).path())
		fmt.Fprintln(&b, edgeBatch(seed, 131072, i))
	}
	fmt.Fprintln(&b, arrivals(seed, streamArrivals, 1, 250, 5*time.Second))
	fmt.Fprintln(&b, arrivals(seed, streamWriteArrivals, 0, 100, 5*time.Second))
	return b.Bytes()
}

func TestSameSeedSameStreams(t *testing.T) {
	a, b := renderStreams(7), renderStreams(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed produced different request, edge or arrival streams")
	}
	if bytes.Equal(a, renderStreams(8)) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestArrivalsAreAPoissonSchedule(t *testing.T) {
	const rate, dur = 250.0, 40 * time.Second
	sched := arrivals(3, streamArrivals, 1, rate, dur)
	want := rate * dur.Seconds()
	if got := float64(len(sched)); math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Fatalf("%v arrivals in %v at %v/s, want about %v", got, dur, rate, want)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] < sched[i-1] {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
	}
	if last := sched[len(sched)-1]; last >= dur {
		t.Fatalf("arrival due at %v, past the phase end %v", last, dur)
	}
}

func TestUniformSampler(t *testing.T) {
	const buckets, draws = 64, 64000
	var count [buckets]int
	for i := 0; i < draws; i++ {
		req := readRequest(11, buckets, 1, 10, i)
		if len(req.nodes) != 1 || req.nodes[0] < 0 || req.nodes[0] >= buckets {
			t.Fatalf("request %d has nodes %v outside [0, %d)", i, req.nodes, buckets)
		}
		count[req.nodes[0]]++
	}
	chi2 := 0.0
	expect := float64(draws) / buckets
	for _, c := range count {
		chi2 += (float64(c) - expect) * (float64(c) - expect) / expect
	}
	// 63 degrees of freedom: the 99.9th percentile of chi-square is 103.
	if chi2 > 103 {
		t.Fatalf("chi-square %v over %d buckets: the sampler is not uniform", chi2, buckets)
	}
	multi := readRequest(11, 20, 16, 100, 0)
	seen := map[int]bool{}
	for _, v := range multi.nodes {
		if seen[v] {
			t.Fatalf("multi-source request repeats node %d: %v", v, multi.nodes)
		}
		seen[v] = true
	}
	if len(multi.nodes) != 16 {
		t.Fatalf("multi-source request has %d nodes, want 16", len(multi.nodes))
	}
}

func TestPercentiles(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 50}, {99, 50}, {100, 90}, {350, 90}, {999, 90}, {1000, 99}, {3500, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v: ten samples must lie beyond the tail", c.n, got, c.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{}
	add := func(name string, parent int, start, end int64) int {
		tr.spans = append(tr.spans, span{ID: len(tr.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
		return len(tr.spans)
	}
	root := add("root", 0, 0, 100)
	add("kid", root, 10, 30)
	add("kid", root, 20, 50) // overlaps the first: a parallel fan-out counts once
	add("kid", root, 60, 70)
	late := add("kid", root, 90, 120) // runs past the parent: clipped to it
	add("grandkid", late, 95, 100)    // not a child of root
	add("root", 0, 200, 260)          // a second root without children
	// Covered: [10,50) + [60,70) + [90,100) = 60 of 100.
	if got, want := tr.selfTimes("root"), []float64{ms(40), ms(60)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self times of root = %v ms, want %v ms", got, want)
	}
	if got, want := tr.durations("kid"), []float64{ms(20), ms(30), ms(10), ms(30)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("durations of kid = %v ms, want %v ms", got, want)
	}
}

// fixture is the n = 2048 index every in-process test shares.
var fixture struct {
	once sync.Once
	g    *csrplus.Graph
	eng  *csrplus.Engine
	ix   *core.Index
	err  error
}

func loadFixture(t *testing.T) (*csrplus.Graph, *csrplus.Engine, *core.Index) {
	t.Helper()
	f := &fixture
	f.once.Do(func() {
		if f.g, f.err = csrplus.GenerateDataset(dataset, smokeScale); f.err != nil {
			return
		}
		if f.eng, f.err = csrplus.NewEngine(f.g, csrplus.Options{Rank: rank, Damping: damping}); f.err != nil {
			return
		}
		f.ix, _ = f.eng.CoreIndex()
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.g, f.eng, f.ix
}

func sameItems(got []topk.Item, want []csrplus.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items, reference has %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Node != w.Node || math.Float64bits(got[i].Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("item %d is (%d, %v), reference has (%d, %v)", i, got[i].Node, got[i].Score, w.Node, w.Score)
		}
	}
	return nil
}

// TestPipelinesAnswerLikeTheReference asserts the result the traced run
// times: both reconstructed request paths must produce the reference's
// answer, or their spans time something the server does not do.
func TestPipelinesAnswerLikeTheReference(t *testing.T) {
	g, eng, ix := loadFixture(t)
	ref := &reference{eng: eng}
	shards, err := shard.Split(ix, wireShards)
	if err != nil {
		t.Fatal(err)
	}
	slots := make([]shard.Slot, len(shards))
	for i, sh := range shards {
		slots[i] = shard.NewLocal(sh)
	}
	tr := newTracer()
	rp, err := newRoutedPath(tr, "shard.Local", slots)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct{ q, k int }{{1, 10}, {16, 100}} {
		lru := cache.New(serverCache)
		var scratch *dense.Mat
		for i := 0; i < 40; i++ {
			req := readRequest(5, g.N(), shape.q, shape.k, i)
			want, err := ref.answer(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := monoPipeline(tr, "request", ix, lru, &scratch, req, i)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameItems(got, want); err != nil {
				t.Fatalf("mono pipeline, %s: %v", req.path(), err)
			}
			if got, err = rp.pipeline("request", cache.New(serverCache), req, i); err != nil {
				t.Fatal(err)
			}
			if err := sameItems(got, want); err != nil {
				t.Fatalf("routed pipeline, %s: %v", req.path(), err)
			}
		}
	}
	// Every routed request has a router span whose children are the slot
	// calls: one gather on the owner(s), one partial top-k per shard.
	kids := map[int]int{}
	routers := 0
	for _, s := range tr.spans {
		switch s.Name {
		case "shard.Router.TopKTagged":
			routers++
		case "shard.Local.PartialTopK":
			kids[s.Parent]++
		}
	}
	if routers != 80 || len(kids) != routers {
		t.Fatalf("%d router spans, %d of them with partial top-k children; want 80 and 80", routers, len(kids))
	}
	for id, n := range kids {
		if n != wireShards || tr.spans[id-1].Name != "shard.Router.TopKTagged" {
			t.Fatalf("span %d (%s) has %d partial top-k children, want %d under a router span", id, tr.spans[id-1].Name, n, wireShards)
		}
	}
}

// TestLayerProbeRuns drives every in-process pass of the traced run on the
// small fixture and checks it yields each metric it is responsible for.
func TestLayerProbeRuns(t *testing.T) {
	g, _, ix := loadFixture(t)
	tmp := t.TempDir()
	_, snapPath, err := core.WriteSnapshot(filepath.Join(tmp, "snap"), ix)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads[1] // multi-source: the aggregate and SelectSet spans exist
	lp := &layerProbe{tr: newTracer(), ix: ix, g: g.CoreGraph(), w: w, seed: 5, tmp: filepath.Join(tmp, "probe")}
	for i := 0; i < 40; i++ {
		lp.reqs = append(lp.reqs, readRequest(5, g.N(), w.q, w.k, i))
	}
	m := map[string]float64{}
	for _, pass := range []func() error{
		func() error { return lp.searchPass(nil) },
		lp.shardPass,
		func() error { return lp.kernelPass(m) },
		func() error { return lp.setupPass(snapPath) },
		func() error { return lp.ingestPass(m) },
	} {
		if err := pass(); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"serve.Server.Search", "shard.Router.TopK", "core.IndexShard.PartialInto", "core.Precompute", "core.MapIndex", "core.WriteSnapshot", "ingest.WAL.Append", "ingest.Service.Append"} {
		if len(lp.tr.durations(name)) == 0 {
			t.Errorf("no span named %s", name)
		}
	}
	for _, name := range []string{"dense.gflops_q1", "dense.gflops_q16", "topk.select_p50_us", "topk.merge_us", "ingest.wal_bytes_per_edge", "ingest.replay_edges_per_s", "core.apply_edge_us"} {
		if v, ok := m[name]; !ok || !(v > 0) {
			t.Errorf("metric %s = %v, want a positive value", name, v)
		}
	}
	if got := m["ingest.wal_bytes_per_edge"]; got < 20 || got > 64 {
		t.Errorf("a WAL record costs %v bytes; the frame is a few tens", got)
	}
}

// TestReferenceCheckBites perturbs one score by one unit in the last place
// and expects the check to fail that operation, and the run with it.
func TestReferenceCheckBites(t *testing.T) {
	g, eng, _ := loadFixture(t)
	ref := &reference{eng: eng}
	req := func(i int) request { return readRequest(5, g.N(), 1, 10, i) }
	body := func(i int, nudge bool) []byte {
		want, err := ref.answer(req(i))
		if err != nil {
			t.Fatal(err)
		}
		matches := make([]serve.Match, len(want))
		for j, w := range want {
			matches[j] = serve.Match{Node: w.Node, Score: w.Score}
		}
		if nudge {
			matches[3].Score = math.Nextafter(matches[3].Score, 2)
		}
		b, err := encodeResponse(req(i), matches)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	p := &phase{samples: []sample{{idx: 0, body: body(0, false)}, {idx: 1, body: body(1, true)}, {idx: 2}}}
	if checked := ref.verifyPhase(p, req); checked != 2 {
		t.Fatalf("checked %d bodies, want 2", checked)
	}
	if p.samples[0].err != nil {
		t.Fatalf("a correct answer failed the check: %v", p.samples[0].err)
	}
	if p.samples[1].err == nil {
		t.Fatal("an answer one ulp off the reference passed the check")
	}
	o := &outcome{failed: p.failed()}
	if o.failed != 1 || o.correct() {
		t.Fatalf("a run with %d failed operations reports correct=%v", o.failed, o.correct())
	}
	if err := ref.verify(req(0), []byte(`{"matches":[],"degraded":{"degraded":true}}`)); err == nil {
		t.Fatal("a degraded answer passed the check")
	}
}

// TestBenchmarkFileMatchesTheCode holds BENCHMARK.json to the metric and
// workload tables a run prints from.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	b, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the code:\n file %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the code:\n file %+v\n code %+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the code", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %+v in the file, {%s %s} in the code", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(b.Paths, []string{"csrload"}) || !reflect.DeepEqual(b.Command, []string{"bash", "csrload/run.sh"}) {
		t.Errorf("command %v over paths %v, want bash csrload/run.sh over csrload", b.Command, b.Paths)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
