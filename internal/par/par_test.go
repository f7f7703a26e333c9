package par

import (
	"runtime"
	"sync"
	"testing"
)

// coverage verifies every index in [0, n) is visited exactly once and
// ranges never overlap, whatever the worker count.
func coverage(t *testing.T, n int, flops int64) {
	t.Helper()
	var mu sync.Mutex
	seen := make([]int, n)
	Do(n, flops, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("Do(%d): bad range [%d, %d)", n, lo, hi)
		}
		mu.Lock()
		for i := lo; i < hi; i++ {
			seen[i]++
		}
		mu.Unlock()
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("Do(%d): index %d visited %d times", n, i, c)
		}
	}
}

func TestDoCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 1000, 1001} {
		coverage(t, n, DefaultThreshold)   // parallel path
		coverage(t, n, DefaultThreshold-1) // serial path
	}
}

func TestDoZeroAndNegative(t *testing.T) {
	called := false
	Do(0, DefaultThreshold, func(lo, hi int) { called = true })
	Do(-3, DefaultThreshold, func(lo, hi int) { called = true })
	if called {
		t.Fatal("Do must not invoke body for n <= 0")
	}
}

func TestSetMaxWorkers(t *testing.T) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	if got := Workers(); got != 1 {
		t.Fatalf("Workers() = %d after SetMaxWorkers(1)", got)
	}
	// With one worker the parallel path must degrade to a single inline call.
	calls := 0
	Do(1000, DefaultThreshold, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 1000 {
			t.Fatalf("serial fallback got range [%d, %d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected 1 body call, got %d", calls)
	}
	SetMaxWorkers(4)
	if got := Workers(); got != 4 {
		t.Fatalf("Workers() = %d after SetMaxWorkers(4)", got)
	}
	SetMaxWorkers(0)
	if got, want := Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d after reset, want GOMAXPROCS %d", got, want)
	}
}

func TestDoWorkerCountIndependence(t *testing.T) {
	// The chunk layout (hence which body call owns which index) may vary
	// with workers, but coverage must stay exact at every count.
	for _, w := range []int{1, 2, 3, 5, 16} {
		prev := SetMaxWorkers(w)
		coverage(t, 997, DefaultThreshold)
		SetMaxWorkers(prev)
	}
}

// TestDoWeightedCoversRangeAndBalances: whatever the weights — hubs first,
// hubs last, runs of weightless indices, one index outweighing the rest, no
// weight at all — every index is visited once, and no chunk outweighs an
// equal share by more than its own heaviest index.
func TestDoWeightedCoversRangeAndBalances(t *testing.T) {
	weights := map[string]func(i int) int64{
		"uniform":       func(i int) int64 { return 3 },
		"hubs first":    func(i int) int64 { return int64(2000 / (1 + i)) },
		"hubs last":     func(i int) int64 { return int64(2000 / (997 - i)) },
		"mostly zero":   func(i int) int64 { return int64((i % 50) / 49 * 7) },
		"one heavy":     func(i int) int64 { return int64(1 + (i/500)*(1-i/501)*100000) },
		"all zero":      func(i int) int64 { return 0 },
		"leading zeros": func(i int) int64 { return int64(i / 900) },
	}
	for name, weight := range weights {
		for _, n := range []int{1, 2, 3, 997} {
			prefix := make([]int64, n+1)
			prefix[0] = 11 // a sub-range of a longer prefix sum does not start at zero
			heaviest := int64(0)
			for i := 0; i < n; i++ {
				prefix[i+1] = prefix[i] + weight(i)
				heaviest = max(heaviest, weight(i))
			}
			for _, w := range []int{1, 2, 3, 5, 16} {
				for _, flops := range []int64{DefaultThreshold, DefaultThreshold - 1} {
					prev := SetMaxWorkers(w)
					var mu sync.Mutex
					seen := make([]int, n)
					DoWeighted(prefix, flops, func(lo, hi int) {
						mu.Lock()
						defer mu.Unlock()
						if lo < 0 || hi > n || lo >= hi {
							t.Errorf("%s n=%d workers=%d: bad range [%d, %d)", name, n, w, lo, hi)
							return
						}
						for i := lo; i < hi; i++ {
							seen[i]++
						}
						if share := (prefix[n] - prefix[0]) / int64(w); flops >= DefaultThreshold && prefix[hi]-prefix[lo] > share+heaviest+1 {
							t.Errorf("%s n=%d workers=%d: chunk [%d, %d) weighs %d, an equal share is %d and the heaviest index %d",
								name, n, w, lo, hi, prefix[hi]-prefix[lo], share, heaviest)
						}
					})
					SetMaxWorkers(prev)
					for i, c := range seen {
						if c != 1 {
							t.Fatalf("%s n=%d workers=%d: index %d visited %d times", name, n, w, i, c)
						}
					}
				}
			}
		}
	}
	called := false
	DoWeighted(nil, DefaultThreshold, func(lo, hi int) { called = true })
	DoWeighted([]int64{0}, DefaultThreshold, func(lo, hi int) { called = true })
	if called {
		t.Fatal("DoWeighted must not invoke body for n <= 0")
	}
}

// alignedCoverage verifies DoAligned visits every index exactly once and
// that every chunk boundary except the final hi lands on a multiple of
// align.
func alignedCoverage(t *testing.T, n, align int, flops int64) {
	t.Helper()
	var mu sync.Mutex
	seen := make([]int, n)
	DoAligned(n, align, flops, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("DoAligned(%d, %d): bad range [%d, %d)", n, align, lo, hi)
		}
		if align >= 2 && (lo%align != 0 || (hi%align != 0 && hi != n)) {
			t.Errorf("DoAligned(%d, %d): unaligned range [%d, %d)", n, align, lo, hi)
		}
		mu.Lock()
		for i := lo; i < hi; i++ {
			seen[i]++
		}
		mu.Unlock()
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("DoAligned(%d, %d): index %d visited %d times", n, align, i, c)
		}
	}
}

func TestDoAlignedCoversRangeWithAlignedBoundaries(t *testing.T) {
	for _, n := range []int{1, 3, 4, 7, 8, 63, 64, 65, 1000, 1001} {
		for _, align := range []int{0, 1, 2, 4, 8} {
			alignedCoverage(t, n, align, DefaultThreshold)   // parallel path
			alignedCoverage(t, n, align, DefaultThreshold-1) // serial path
		}
	}
}

func TestDoAlignedWorkerCountIndependence(t *testing.T) {
	for _, w := range []int{1, 2, 3, 5, 16} {
		prev := SetMaxWorkers(w)
		alignedCoverage(t, 997, 4, DefaultThreshold)
		SetMaxWorkers(prev)
	}
}

func TestDoAlignedZeroAndNegative(t *testing.T) {
	called := false
	DoAligned(0, 4, DefaultThreshold, func(lo, hi int) { called = true })
	DoAligned(-3, 4, DefaultThreshold, func(lo, hi int) { called = true })
	if called {
		t.Fatal("DoAligned must not invoke body for n <= 0")
	}
}

func TestGridDeterministicAndCovering(t *testing.T) {
	for _, n := range []int{1, 10, 511, 512, 513, 100000} {
		chunk, count := Grid(n, 512, 64)
		if count < 1 || chunk < 1 {
			t.Fatalf("Grid(%d) = (%d, %d)", n, chunk, count)
		}
		if got := (n + chunk - 1) / chunk; got != count {
			t.Fatalf("Grid(%d): count %d inconsistent with chunk %d (want %d)", n, count, chunk, got)
		}
		if count > 64 {
			t.Fatalf("Grid(%d): count %d exceeds maxChunks", n, count)
		}
		// Worker overrides must not change the grid.
		prev := SetMaxWorkers(3)
		c2, k2 := Grid(n, 512, 64)
		SetMaxWorkers(prev)
		if c2 != chunk || k2 != count {
			t.Fatalf("Grid(%d) changed under worker override: (%d,%d) vs (%d,%d)", n, chunk, count, c2, k2)
		}
	}
	if chunk, count := Grid(100, 512, 64); count != 1 || chunk != 100 {
		t.Fatalf("Grid below minChunk: got (%d, %d), want (100, 1)", chunk, count)
	}
}
