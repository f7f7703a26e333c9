package serve

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Metrics is the serving layer's registry of lock-free counters and
// histograms. One instance is shared by every generation and the
// admission gate, so a single Snapshot describes the whole serving path.
// All methods are safe for concurrent use.
type Metrics struct {
	admitted   atomic.Int64 // requests pinned to a generation
	shed       atomic.Int64 // requests rejected with ErrOverloaded
	rejected   atomic.Int64 // requests rejected with ErrBadRequest / ErrClosed
	expired    atomic.Int64 // requests whose context ended before a result
	batches    atomic.Int64 // engine calls issued, one per answered request
	nodes      atomic.Int64 // query nodes across all engine calls
	queueDepth atomic.Int64 // requests admitted but not yet answered

	degraded atomic.Int64 // requests answered without a shard or past the drift budget

	generation     atomic.Uint64 // engine generation taking new requests
	shards         atomic.Int64  // slot count of the serving router; 1 = the whole index
	reloads        atomic.Int64  // successful generation swaps after boot
	reloadFailures atomic.Int64  // reload runs that never swapped

	// Latency covers admission -> response for answered requests, in
	// seconds. BatchOccupancy counts query nodes per engine call: every
	// call answers one request, so it is the distribution of |Q| (the
	// /metrics keys keep their pre-PR-25 "batch" names, which csrload
	// scrapes). ReloadDuration covers candidate load + validation + swap
	// for successful reloads, in seconds.
	Latency        *Histogram
	BatchOccupancy *Histogram
	ReloadDuration *Histogram

	extraMu sync.Mutex
	extra   map[string]func() any
}

// NewMetrics returns a registry with the default bucket layouts.
func NewMetrics() *Metrics {
	return &Metrics{
		Latency: NewHistogram(
			100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3,
			10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1),
		BatchOccupancy: NewHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256),
		ReloadDuration: NewHistogram(0.01, 0.05, 0.1, 0.5, 1, 5, 15, 60, 300),
	}
}

// Admitted, Shed and Expired expose the counters the tests and the /stats
// endpoint read directly.
func (m *Metrics) Admitted() int64 { return m.admitted.Load() }
func (m *Metrics) Shed() int64     { return m.shed.Load() }
func (m *Metrics) Expired() int64  { return m.expired.Load() }

// Degraded counts requests answered with a shard missing or the drift
// budget exhausted.
func (m *Metrics) Degraded() int64 { return m.degraded.Load() }

// SetGeneration records the engine generation now taking new requests;
// Server.Swap is the only writer. Generation reads the gauge.
func (m *Metrics) SetGeneration(gen uint64) { m.generation.Store(gen) }
func (m *Metrics) Generation() uint64       { return m.generation.Load() }

// SetShards records the slot count of the serving router (1 when one
// slot holds the whole index); Shards reads the gauge back.
func (m *Metrics) SetShards(k int) { m.shards.Store(int64(k)) }
func (m *Metrics) Shards() int64   { return m.shards.Load() }

// ReloadSucceeded counts one completed hot reload and its duration;
// ReloadFailed counts an attempt that was abandoned before the swap (the
// old generation kept serving). Reloads and ReloadFailures read back the
// counters.
func (m *Metrics) ReloadSucceeded(seconds float64) {
	m.reloads.Add(1)
	m.ReloadDuration.Observe(seconds)
}
func (m *Metrics) ReloadFailed()         { m.reloadFailures.Add(1) }
func (m *Metrics) Reloads() int64        { return m.reloads.Load() }
func (m *Metrics) ReloadFailures() int64 { return m.reloadFailures.Load() }

// RegisterExtra merges a named producer into every Snapshot: fn runs at
// snapshot time and its value lands under name. The wire router registers
// its per-shard client stats this way, so /metrics describes the whole
// serving path without the registry knowing the stats' shape. A later
// registration under the same name replaces the earlier one.
func (m *Metrics) RegisterExtra(name string, fn func() any) {
	m.extraMu.Lock()
	defer m.extraMu.Unlock()
	if m.extra == nil {
		m.extra = make(map[string]func() any)
	}
	m.extra[name] = fn
}

// Snapshot renders every counter and histogram as a JSON-encodable map,
// the payload of the /metrics endpoint.
func (m *Metrics) Snapshot() map[string]interface{} {
	batches := m.batches.Load()
	nodes := m.nodes.Load()
	mean := 0.0
	if batches > 0 {
		mean = float64(nodes) / float64(batches)
	}
	out := map[string]interface{}{
		"requests_admitted":    m.admitted.Load(),
		"requests_shed":        m.shed.Load(),
		"requests_rejected":    m.rejected.Load(),
		"requests_expired":     m.expired.Load(),
		"engine_batches":       batches,
		"batched_nodes":        nodes,
		"mean_batch_occupancy": mean,
		"queue_depth":          m.queueDepth.Load(),
		"requests_degraded":    m.degraded.Load(),
		"generation":           m.generation.Load(),
		"shard_count":          m.shards.Load(),
		"reloads":              m.reloads.Load(),
		"reload_failures":      m.reloadFailures.Load(),
		"reload_seconds":       m.ReloadDuration.Snapshot(),
		"latency_seconds":      m.Latency.Snapshot(),
		"batch_occupancy":      m.BatchOccupancy.Snapshot(),
	}
	m.extraMu.Lock()
	for name, fn := range m.extra {
		out[name] = fn()
	}
	m.extraMu.Unlock()
	return out
}

// Histogram is a fixed-bucket cumulative histogram with atomic counters.
// Bounds are upper-inclusive ("le" semantics); observations above the last
// bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram builds a histogram over ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Bucket is one histogram cell of a snapshot: count of observations with
// value <= Le (cumulative, Prometheus-style).
type Bucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// MarshalJSON renders the +Inf bound as the string "+Inf" (Prometheus
// convention), since encoding/json rejects infinite float64 values.
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.Le, 1) {
		le = strconv.FormatFloat(b.Le, 'g', -1, 64)
	}
	return []byte(fmt.Sprintf(`{"le":%q,"count":%d}`, le, b.Count)), nil
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot returns cumulative bucket counts plus count/sum/mean.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sum.Load()),
		Buckets: make([]Bucket, 0, len(h.bounds)+1),
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		s.Buckets = append(s.Buckets, Bucket{Le: b, Count: cum})
	}
	cum += h.counts[len(h.bounds)].Load()
	s.Buckets = append(s.Buckets, Bucket{Le: math.Inf(1), Count: cum})
	return s
}
