package serve

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 556.5 {
		t.Fatalf("sum = %v", s.Sum)
	}
	if s.Mean != 556.5/5 {
		t.Fatalf("mean = %v", s.Mean)
	}
	// Cumulative ("le") semantics: 0.5 and 1 fall in le=1; 5 in le=10;
	// 50 in le=100; 500 in +Inf.
	wantCum := []int64{2, 3, 4, 5}
	for i, b := range s.Buckets {
		if b.Count != wantCum[i] {
			t.Fatalf("bucket %d (le=%v) = %d, want %d", i, b.Le, b.Count, wantCum[i])
		}
	}
	if !math.IsInf(s.Buckets[len(s.Buckets)-1].Le, 1) {
		t.Fatal("last bucket is not +Inf")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(w%4) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
	if s.Buckets[len(s.Buckets)-1].Count != 8000 {
		t.Fatal("cumulative +Inf bucket lost observations")
	}
}

func TestMetricsSnapshotIsJSONEncodable(t *testing.T) {
	m := NewMetrics()
	m.admitted.Add(3)
	m.batches.Add(2)
	m.nodes.Add(5)
	m.Latency.Observe(0.002)
	m.BatchOccupancy.Observe(3)

	snap := m.Snapshot()
	if snap["mean_batch_occupancy"].(float64) != 2.5 {
		t.Fatalf("mean occupancy = %v", snap["mean_batch_occupancy"])
	}
	for key := range snap {
		if strings.HasPrefix(key, "cache_") {
			t.Fatalf("snapshot still carries %q: nothing is cached", key)
		}
	}
	// The /metrics endpoint serialises this map; +Inf bucket bounds must
	// not break encoding/json (they are rendered via the bucket list).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
}
