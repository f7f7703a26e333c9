package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list.
// The lists below are the single source of truth for what a run prints;
// a test holds BENCHMARK.json to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what the driver gates: the metrics that hold a bound on a
// shared two-vCPU guest whatever the host is doing (README, "The box").
// Every one is reported by every workload and is never zero.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"rss_mb", "MB", lower, 0.15},
}

// socket is what a client of the deployed system sees on the wire: the
// issue's end-to-end timings. They lead the per-layer list (layer
// csrserver) instead of being gated, because the host moves them by more
// than any bound the contract allows; every run prints them.
var socket = []metricDef{
	{Name: "csrserver.latency_p50_ms", Unit: "ms", Better: lower},
	{Name: "csrserver.latency_p90_ms", Unit: "ms", Better: lower},
	{Name: "csrserver.throughput_rps", Unit: "1/s", Better: higher},
	{Name: "csrserver.cpu_ms_per_req", Unit: "ms", Better: lower},
	{Name: "csrserver.restart_s", Unit: "s", Better: lower},
	{Name: "loadgen.box_steal_pct", Unit: "%", Better: lower},
}

// perLayer is what the traced run reports, layer = package name. None is
// gated; they say where an end-to-end change came from.
var perLayer = slices.Concat(socket, []metricDef{
	{Name: "csrserver.latency_tail_ms", Unit: "ms", Better: lower},
	{Name: "csrserver.latency_tail_pct", Unit: "%", Better: higher},
	{Name: "csrserver.latency_samples", Unit: "count", Better: higher},
	{Name: "csrserver.open_rtt_p50_ms", Unit: "ms", Better: lower},
	{Name: "csrserver.closed_p50_ms", Unit: "ms", Better: lower},
	{Name: "csrserver.http_overhead_p50_ms", Unit: "ms", Better: lower},
	{Name: "csrserver.http_floor_p50_ms", Unit: "ms", Better: lower},
	{Name: "csrserver.json_encode_us", Unit: "us", Better: lower},
	{Name: "csrserver.response_bytes_mean", Unit: "B", Better: lower},
	{Name: "csrserver.write_ack_p50_ms", Unit: "ms", Better: lower},
	{Name: "csrserver.rss_peak_mb", Unit: "MB", Better: lower},
	{Name: "loadgen.send_lag_p50_ms", Unit: "ms", Better: lower},
	{Name: "loadgen.send_lag_p99_ms", Unit: "ms", Better: lower},
	{Name: "loadgen.conn_wait_p50_ms", Unit: "ms", Better: lower},
	{Name: "loadgen.conn_wait_share", Unit: "ratio", Better: lower},
	{Name: "serve.search_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.self_p50_ms", Unit: "ms", Better: lower},
	{Name: "serve.batch_occupancy_mean", Unit: "count", Better: higher},
	{Name: "serve.engine_batches", Unit: "count", Better: lower},
	{Name: "serve.requests_shed", Unit: "count", Better: lower},
	{Name: "serve.requests_expired", Unit: "count", Better: lower},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: higher},
	{Name: "cache.get_ns", Unit: "ns", Better: lower},
	{Name: "cache.put_ns", Unit: "ns", Better: lower},
	{Name: "core.query_p50_ms", Unit: "ms", Better: lower},
	{Name: "core.gather_us", Unit: "us", Better: lower},
	{Name: "core.partial_into_p50_ms", Unit: "ms", Better: lower},
	{Name: "core.col_copy_p50_ms", Unit: "ms", Better: lower},
	{Name: "core.index_bytes", Unit: "B", Better: lower},
	{Name: "core.precompute_s", Unit: "s", Better: lower},
	{Name: "core.map_index_ms", Unit: "ms", Better: lower},
	{Name: "core.write_snapshot_ms", Unit: "ms", Better: lower},
	{Name: "core.apply_edge_us", Unit: "us", Better: lower},
	{Name: "graph.generate_s", Unit: "s", Better: lower},
	{Name: "dense.mult_q1_p50_ms", Unit: "ms", Better: lower},
	{Name: "dense.mult_q16_p50_ms", Unit: "ms", Better: lower},
	{Name: "dense.gflops_q1", Unit: "GFLOP/s", Better: higher},
	{Name: "dense.gflops_q16", Unit: "GFLOP/s", Better: higher},
	{Name: "topk.select_p50_us", Unit: "us", Better: lower},
	{Name: "topk.select_set_p50_us", Unit: "us", Better: lower},
	{Name: "topk.merge_us", Unit: "us", Better: lower},
	{Name: "topk.select_allocs", Unit: "count", Better: lower},
	{Name: "shard.router_topk_p50_ms", Unit: "ms", Better: lower},
	{Name: "shard.router_self_p50_ms", Unit: "ms", Better: lower},
	{Name: "shard.partial_topk_p50_ms", Unit: "ms", Better: lower},
	{Name: "shard.urows_us", Unit: "us", Better: lower},
	{Name: "shard.fanout_skew", Unit: "ratio", Better: lower},
	{Name: "shard.topk_allocs", Unit: "count", Better: lower},
	{Name: "wire.urows_rtt_p50_ms", Unit: "ms", Better: lower},
	{Name: "wire.partial_topk_rtt_p50_ms", Unit: "ms", Better: lower},
	{Name: "wire.f64s_encode_us", Unit: "us", Better: lower},
	{Name: "wire.f64s_decode_us", Unit: "us", Better: lower},
	{Name: "wire.request_bytes", Unit: "B", Better: lower},
	{Name: "wire.response_bytes", Unit: "B", Better: lower},
	{Name: "wire.retries", Unit: "count", Better: lower},
	{Name: "wire.hedges", Unit: "count", Better: lower},
	{Name: "ingest.wal_append_p50_ms", Unit: "ms", Better: lower},
	{Name: "ingest.service_append_p50_ms", Unit: "ms", Better: lower},
	{Name: "ingest.wal_bytes_per_edge", Unit: "B", Better: lower},
	{Name: "ingest.replay_edges_per_s", Unit: "1/s", Better: higher},
	{Name: "ingest.drift_bound_per_edge", Unit: "ratio", Better: lower},
	{Name: "trace.request_p50_ms", Unit: "ms", Better: lower},
	{Name: "trace.coverage", Unit: "ratio", Better: higher},
	{Name: "trace.coverage_open", Unit: "ratio", Better: higher},
})

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []benchmarkWorkload `json:"workloads"`
	EndToEnd   []metricDef         `json:"end_to_end"`
	PerLayer   []metricDef         `json:"per_layer"`
}

// benchmarkJSON renders BENCHMARK.json from the tables this package runs
// from (csrload -benchmark-json), so the file is generated, not maintained.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	b := benchmarkFile{
		Command:    []string{"bash", "csrload/run.sh"},
		Paths:      []string{"csrload"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, benchmarkWorkload{Name: w.name, Why: w.why})
	}
	return json.MarshalIndent(b, "", "  ")
}

type benchmarkWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the run's result line over defs; a metric the run did not
// produce is an error, so BENCHMARK.json and the code cannot drift apart
// silently.
func (o *outcome) result(defs []metricDef) (*resultLine, error) {
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("run produced no value for metric %s", d.Name)
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return &resultLine{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: metrics}, nil
}
