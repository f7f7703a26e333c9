package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"csrplus"

	"csrplus/internal/core"
	"csrplus/internal/ingest"
)

// timing is how one run divides its time.
type timing struct {
	warm, open, closed time.Duration
	// boots is how many times a topology is set up from a snapshot, and
	// how many times it is restarted; setup_s and csrserver.restart_s are the
	// medians. A cold boot is set up once: it costs an order of magnitude
	// more and varies an order less.
	boots int
}

// timingFor splits the --seconds the driver allots into the open-loop and
// closed-loop phases; the warm-up is extra and discarded.
func timingFor(seconds int) timing {
	total := time.Duration(seconds) * time.Second
	return timing{warm: 2 * time.Second, open: total * 6 / 10, closed: total * 4 / 10, boots: 5}
}

// outcome is everything one run of one workload produced.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string // why the run is not correct, beyond failed operations
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.problems) == 0 }

func getJSON(c *http.Client, url string, dst interface{}) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, dst)
}

// slotCounters is the part of a wire.SlotStats the benchmark reads.
type slotCounters struct {
	Retries int64 `json:"retries"`
	Hedges  int64 `json:"hedges"`
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Occupancy  float64        `json:"mean_batch_occupancy"`
	Batches    float64        `json:"engine_batches"`
	Shed       float64        `json:"requests_shed"`
	Expired    float64        `json:"requests_expired"`
	CacheHits  float64        `json:"cache_hit_ratio"`
	WireShards []slotCounters `json:"wire_shards"` // routers only
}

// runWorkload boots w's topology from e, drives it, restarts it, checks the
// sampled answers, and — when tr is set — times every layer as well.
func runWorkload(e *env, w workload, seed int64, tm timing, tr *tracer, out io.Writer) (*outcome, error) {
	if err := e.buildServer(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.logDir(), 0o755); err != nil {
		return nil, err
	}
	genStart := time.Now()
	g, err := csrplus.GenerateDataset(dataset, e.dscale)
	if err != nil {
		return nil, err
	}
	genTime := time.Since(genStart)
	n := g.N()

	// Everything but a cold boot needs the prepared snapshots; a traced
	// cold boot needs the shard snapshots for its wire probe.
	if !w.cold || tr != nil {
		if err := e.prepare(); err != nil {
			return nil, err
		}
	}
	runDir, err := os.MkdirTemp(e.workdir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	snapDir, walDir := e.monoSnapDir(), filepath.Join(runDir, "wal")
	boots := tm.boots
	if w.cold {
		snapDir, boots = filepath.Join(runDir, "snap"), 1
		if err := os.Mkdir(snapDir, 0o755); err != nil {
			return nil, err
		}
	}

	// Set-up, timed: exec of the first process to /readyz on all of them.
	var topo *topology
	var setups []float64
	for i := 0; i < boots; i++ {
		if topo != nil {
			topo.stop()
			if err := os.RemoveAll(walDir); err != nil {
				return nil, err
			}
		}
		var dt time.Duration
		if topo, dt, err = e.boot(w.name, w.kind, snapDir, walDir); err != nil {
			return nil, err
		}
		setups = append(setups, dt.Seconds())
	}
	defer func() { topo.stop() }()

	req := func(i int) request { return readRequest(seed, n, w.q, w.k, i) }
	batch := func(i int) []ingest.Edge { return edgeBatch(seed, n, i) }
	steal0, total0, err := cpuSteal()
	if err != nil {
		return nil, err
	}
	open, closed, writes, err := drive(topo, w, seed, tm, req, batch)
	if err != nil {
		return nil, err
	}
	steal1, total1, err := cpuSteal()
	if err != nil {
		return nil, err
	}
	stealPct := 100 * float64(steal1-steal0) / float64(max(total1-total0, 1))

	var sm serverMetrics
	if err := getJSON(e.poll, topo.front.url+"/metrics", &sm); err != nil {
		return nil, err
	}
	peak, err := topo.memory("VmHWM")
	if err != nil {
		return nil, err
	}

	// The reference maps the snapshot this topology serves from — for a
	// cold boot, the one the server has just published.
	snapPath, _, err := core.CurrentSnapshot(snapDir)
	if err != nil {
		return nil, err
	}
	eng, err := csrplus.LoadEngine(g, snapPath)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ref := &reference{eng: eng}

	o := &outcome{metrics: map[string]float64{}}
	m := o.metrics
	if tr != nil {
		if err := traceLayers(e, w, seed, tr, topo, eng, g, snapPath, runDir, sm, m); err != nil {
			return nil, err
		}
		m["graph.generate_s"] = genTime.Seconds()
	}

	// Restart: a clean stop, then the same topology again from what is
	// now on disk — the published snapshot, plus the WAL tail for ingest.
	// Every restart finds the same files, so it is repeated like set-up.
	var restarts []float64
	for i := 0; i < tm.boots; i++ {
		topo.stop()
		var dt time.Duration
		if topo, dt, err = e.boot(w.name+"-restart", w.kind, snapDir, walDir); err != nil {
			return nil, err
		}
		restarts = append(restarts, dt.Seconds())
	}
	if writes != nil {
		o.problems = append(o.problems, checkDurability(e.poll, topo.front.url, g, writes, batch)...)
		// The warm-up's batches count for durability, not for the report.
		measured := &phase{name: writes.name}
		for _, s := range writes.samples {
			if s.due >= tm.warm {
				measured.samples = append(measured.samples, s)
			}
		}
		writes = measured
	}
	topo.stop()

	// With the servers gone the box is free for the reference check.
	checked := ref.verifyPhase(open, req) + ref.verifyPhase(closed, req)
	phases := []*phase{open, closed}
	if writes != nil {
		phases = append(phases, writes)
	}
	for _, p := range phases {
		sent, bad := len(p.samples), p.failed()
		fmt.Fprintf(out, "phase %-6s ops_sent=%d ops_ok=%d ops_failed=%d\n", p.name, sent, sent-bad, bad)
		o.attempted += sent
		o.failed += bad
		shown := 0
		for _, s := range p.samples {
			if s.err != nil && shown < 3 {
				fmt.Fprintf(out, "  failed: %v\n", s.err)
				shown++
			}
		}
	}
	fmt.Fprintf(out, "reference check: %d sampled responses compared bit for bit\n", checked)
	fmt.Fprintf(out, "box: the host stole %.2f %% of the CPU time during the load phases\n", stealPct)

	m["setup_s"], m["csrserver.restart_s"] = median(setups), median(restarts)
	m["loadgen.box_steal_pct"] = stealPct
	loadMetrics(m, w, tm, open, closed)
	if tr != nil {
		m["csrserver.rss_peak_mb"] = float64(peak) / (1 << 20)
		derivedMetrics(m, open, closed, writes, out)
	}
	for _, p := range o.problems {
		fmt.Fprintf(out, "PROBLEM: %s\n", p)
	}
	return o, nil
}

// usage sums the CPU consumed and the memory resident over the topology's
// processes.
func (t *topology) usage() (usage, error) {
	var u usage
	for _, p := range t.procs {
		cpu, err := p.cpuTime()
		if err != nil {
			return u, err
		}
		u.cpu += cpu
	}
	var err error
	u.rss, err = t.memory("VmRSS")
	return u, err
}

func (t *topology) memory(field string) (int64, error) {
	var total int64
	for _, p := range t.procs {
		b, err := p.memory(field)
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}

// checkDurability holds the restarted server to the WAL's promise: every
// acknowledged batch is back in the graph. last_seq must have reached the
// highest acknowledged sequence, and live_edges must equal the boot graph's
// edge count plus the distinct acknowledged edges it did not already hold
// (an unweighted graph collapses duplicates).
func checkDurability(c *http.Client, url string, g *csrplus.Graph, writes *phase, batch func(i int) []ingest.Edge) []string {
	var stats struct {
		Ingest ingest.Stats `json:"ingest"`
	}
	if err := getJSON(c, url+"/stats", &stats); err != nil {
		return []string{"durability: " + err.Error()}
	}
	var maxSeq uint64
	fresh := map[[2]int]bool{}
	lost := false
	for _, s := range writes.samples {
		if s.err != nil {
			lost = true // applied or not: the edge count is no longer exact
			continue
		}
		maxSeq = max(maxSeq, s.seq)
		for _, ed := range batch(s.idx) {
			if !g.HasEdge(ed.Src, ed.Dst) {
				fresh[[2]int{ed.Src, ed.Dst}] = true
			}
		}
	}
	var problems []string
	if stats.Ingest.LastSeq < maxSeq {
		problems = append(problems, fmt.Sprintf("durability: restarted server replayed to seq %d, but seq %d was acknowledged", stats.Ingest.LastSeq, maxSeq))
	}
	if want := g.M() + int64(len(fresh)); !lost && stats.Ingest.LiveEdges != want {
		problems = append(problems, fmt.Sprintf("durability: restarted server holds %d live edges, acknowledged writes make it %d", stats.Ingest.LiveEdges, want))
	}
	return problems
}

// traceLayers fills m with every per-layer metric that needs the live
// topology or the in-process layers: the layer probe, the loopback floor,
// the scraped counters and, for topologies without them, short-lived probe
// processes so that every layer is timed on every workload.
func traceLayers(e *env, w workload, seed int64, tr *tracer, topo *topology, eng *csrplus.Engine, g *csrplus.Graph, snapPath, runDir string, sm serverMetrics, m map[string]float64) error {
	ix, ok := eng.CoreIndex()
	if !ok {
		return fmt.Errorf("reference engine has no CSR+ index")
	}
	workers := topo.workers
	if len(workers) == 0 {
		probe, _, err := e.boot(w.name+"-probe", topoWire, "", "")
		if err != nil {
			return err
		}
		defer probe.stop()
		workers = probe.workers
	}
	urls := make([]string, len(workers))
	for i, p := range workers {
		urls[i] = p.url
	}
	lp := &layerProbe{tr: tr, ix: ix, g: g.CoreGraph(), w: w, seed: seed, tmp: filepath.Join(runDir, "probe")}
	for i := 0; i < replayRequests; i++ {
		lp.reqs = append(lp.reqs, readRequest(seed, g.N(), w.q, w.k, i))
	}
	lm, engines, err := lp.run(snapPath, urls)
	if err != nil {
		return err
	}
	for k, v := range lm {
		m[k] = v
	}

	// The loopback floor: what a request costs when the handler does
	// nothing. Independent of every layer timer, so coverage can fail.
	c := newClient()
	var floor []float64
	for i := 0; i < 300; i++ {
		t0 := time.Now()
		resp, err := c.Get(topo.front.url + "/healthz")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		floor = append(floor, ms(time.Since(t0)))
	}
	m["csrserver.http_floor_p50_ms"] = median(floor)

	m["serve.batch_occupancy_mean"] = sm.Occupancy
	m["serve.engine_batches"] = sm.Batches
	m["serve.requests_shed"] = sm.Shed
	m["serve.requests_expired"] = sm.Expired
	m["cache.hit_ratio"] = sm.CacheHits
	// Retries and hedges: the router's own counters where there is a
	// router, the probe's otherwise.
	counters := sm.WireShards
	if w.kind != topoWire {
		for _, en := range engines {
			st := en.Stats()
			counters = append(counters, slotCounters{Retries: st.Retries, Hedges: st.Hedges})
		}
	}
	for _, c := range counters {
		m["wire.retries"] += float64(c.Retries)
		m["wire.hedges"] += float64(c.Hedges)
	}

	// Write acks: ingest-mixed measures them under its read load; the
	// other topologies have no write path, so an idle -waldir server is
	// probed instead.
	if w.writeRate == 0 {
		probe, _, err := e.boot(w.name+"-ackprobe", topoIngest, e.monoSnapDir(), filepath.Join(runDir, "probe-wal"))
		if err != nil {
			return err
		}
		defer probe.stop()
		wr := &writer{url: probe.front.url, client: newClient(), batch: func(i int) []ingest.Edge { return edgeBatch(seed, g.N(), i) }}
		var rtt []float64
		for i := 0; i < 100; i++ {
			t0 := time.Now()
			if s := wr.post(i); s.err != nil {
				return fmt.Errorf("write-ack probe: %w", s.err)
			}
			rtt = append(rtt, ms(time.Since(t0)))
		}
		m["csrserver.write_ack_p50_ms"] = median(rtt)
	}
	return nil
}

// boxLine describes the machine, for the run's header.
func boxLine() string {
	model := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					model = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return fmt.Sprintf("box: nproc=%d gomaxprocs=%d cpu=%q %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version())
}

// drive runs the warm-up, the open-loop phase and the closed-loop phase
// against topo, with the write stream alongside when the workload has one.
// writes holds every batch, the warm-up's included; it is nil without a
// write stream.
func drive(topo *topology, w workload, seed int64, tm timing, req func(i int) request, batch func(i int) []ingest.Edge) (open, closed, writes *phase, err error) {
	ld := &loader{base: topo.front.url, req: req}
	readers := conns
	writesDone := make(chan struct{})
	if w.writeRate > 0 {
		readers--
		// The write stream keeps its schedule through every phase.
		wr := &writer{url: topo.front.url, client: newClient(), batch: batch}
		sched := arrivals(seed, streamWriteArrivals, 0, w.writeRate, tm.warm+tm.open+tm.closed)
		go func() {
			defer close(writesDone)
			writes = wr.run(0, sched)
		}()
	} else {
		close(writesDone)
	}
	for i := 0; i < readers; i++ {
		ld.clients = append(ld.clients, newClient())
	}
	warmSched := arrivals(seed, streamArrivals, 0, w.rate, tm.warm)
	openSched := arrivals(seed, streamArrivals, 1, w.rate, tm.open)
	ld.open("warm-up", 0, warmSched)
	open = ld.open("open", len(warmSched), openSched)
	closed, err = ld.closed("closed", len(warmSched)+len(openSched), tm.closed, topo.usage)
	<-writesDone
	return open, closed, writes, err
}

// loadMetrics fills m with the metrics the load phases determine.
// Each is the median over windows of the phase: the box is a shared VM
// whose speed dips for a second or two at a time, and a median over windows
// ignores the dips a statistic over the whole phase would absorb.
func loadMetrics(m map[string]float64, w workload, tm timing, open, closed *phase) {
	// Latency: percentiles per window of due times.
	openLat := open.latencies()
	due := make([]time.Duration, len(open.samples))
	for i, s := range open.samples {
		due[i] = s.due
	}
	openWindows := byWindow(due, w.latencyWindow(), tm.open)
	windowPercentile := func(p float64) float64 {
		return medianWindow(openWindows, func(_ int, members []int) float64 {
			lat := make([]float64, len(members))
			for i, j := range members {
				lat[i] = openLat[j]
			}
			return percentile(sortedCopy(lat), p)
		})
	}
	// Throughput and CPU: per window of completion times, correct reads only.
	var doneAt []time.Duration
	for _, s := range closed.samples {
		if s.err == nil {
			doneAt = append(doneAt, s.at)
		}
	}
	closedWindows := byWindow(doneAt, window, tm.closed)
	var rss []float64
	for _, u := range closed.usage {
		rss = append(rss, float64(u.rss)/(1<<20))
	}
	m["csrserver.latency_p50_ms"] = windowPercentile(50)
	m["csrserver.latency_p90_ms"] = windowPercentile(90)
	m["csrserver.throughput_rps"] = medianWindow(closedWindows, func(_ int, reads []int) float64 {
		return float64(len(reads)) / window.Seconds()
	})
	m["csrserver.cpu_ms_per_req"] = medianWindow(closedWindows, func(i int, reads []int) float64 {
		cpu := closed.usage[(i+1)*usagePerWindow].cpu - closed.usage[i*usagePerWindow].cpu
		return ms(cpu) / float64(max(len(reads), 1))
	})
	m["rss_mb"] = median(rss)
}

// derivedMetrics fills m with the traced run's per-layer metrics taken on
// the socket and on the generator's own clock, and the ones derived from
// them and the layer probe's.
func derivedMetrics(m map[string]float64, open, closed, writes *phase, out io.Writer) {
	openLat := sortedCopy(open.latencies())
	closedP50 := median(closed.latencies())
	tail := tailPercentile(len(openLat))
	var lag, wait, bytes, rtt []float64
	waited := 0
	for _, s := range open.samples {
		lag = append(lag, ms(s.lag))
		wait = append(wait, ms(s.connWait))
		bytes = append(bytes, float64(s.bytes))
		rtt = append(rtt, ms(s.rtt))
		if s.connWait > 0 {
			waited++
		}
	}
	m["csrserver.latency_tail_ms"] = percentile(openLat, tail)
	m["csrserver.latency_tail_pct"] = tail
	m["csrserver.latency_samples"] = float64(len(openLat))
	m["csrserver.open_rtt_p50_ms"] = median(rtt)
	m["csrserver.closed_p50_ms"] = closedP50
	m["csrserver.http_overhead_p50_ms"] = closedP50 - m["serve.search_p50_ms"]
	m["csrserver.response_bytes_mean"] = mean(bytes)
	m["loadgen.send_lag_p50_ms"] = median(lag)
	m["loadgen.send_lag_p99_ms"] = percentile(sortedCopy(lag), 99)
	m["loadgen.conn_wait_p50_ms"] = median(wait)
	m["loadgen.conn_wait_share"] = float64(waited) / float64(len(open.samples))
	m["serve.self_p50_ms"] = m["serve.search_p50_ms"] - (m["trace.request_p50_ms"] - m["csrserver.json_encode_us"]/1e3)
	rebuilt := m["trace.request_p50_ms"] + m["csrserver.http_floor_p50_ms"]
	m["trace.coverage"] = rebuilt / closedP50
	m["trace.coverage_open"] = rebuilt / m["csrserver.open_rtt_p50_ms"]
	if writes != nil {
		m["csrserver.write_ack_p50_ms"] = median(writes.latencies())
	}
	if limit := m["csrserver.latency_p50_ms"] / 10; m["loadgen.send_lag_p99_ms"] > limit {
		fmt.Fprintf(out, "WARNING: generator send lag p99 %.3f ms exceeds 10%% of csrserver.latency_p50_ms (%.3f ms)\n", m["loadgen.send_lag_p99_ms"], limit)
	}
}
