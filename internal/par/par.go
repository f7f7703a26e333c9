// Package par is the shared scheduler behind every parallel matmul kernel
// in internal/dense and internal/sparse. It owns the three policy knobs
// the kernels used to duplicate inline:
//
//   - a flop threshold below which fan-out never pays (goroutine start-up
//     and wait dominate sub-millisecond kernels);
//   - the worker count, defaulting to GOMAXPROCS with a process-wide
//     override for tests and embedders;
//   - deterministic contiguous index partitioning: [0, n) is split into
//     at most workers chunks of ⌈n/workers⌉ consecutive indices (or, for
//     indices of unequal cost, of equal weight: DoWeighted), so a
//     kernel that writes disjoint output rows per index range produces
//     bitwise-identical results at every worker count.
//
// Kernels whose parallel decomposition must reorder a floating-point
// reduction (e.g. dense.TMul) do NOT let the worker count shape the
// reduction tree: they pick a chunk grid with Grid — a function of the
// problem size only — and schedule those chunks here. The summation
// order is then a property of the input shape, not of GOMAXPROCS, which
// is what makes the package-level determinism guarantee ("same input,
// same output, any core count") hold across the whole kernel suite.
package par

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultThreshold is the flop-count floor for fanning out. One million
// multiply-adds runs in well under a millisecond on one core; below that,
// spawning and joining goroutines costs more than it saves.
const DefaultThreshold = 1 << 20

// maxWorkers, when positive, caps the workers any Do call uses.
// Zero means "use GOMAXPROCS". Atomic so tests can flip it while
// kernels run on other goroutines.
var maxWorkers atomic.Int64

// SetMaxWorkers overrides the worker count used by Do (n < 1 restores the
// GOMAXPROCS default) and returns the previous override (0 = none).
// It applies process-wide: intended for tests pinning determinism and for
// embedders that must keep cores free for other work.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = 0
	}
	return int(maxWorkers.Swap(int64(n)))
}

// Workers returns the effective worker count: the SetMaxWorkers override
// when set, else GOMAXPROCS.
func Workers() int {
	if w := int(maxWorkers.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// Do runs body over the index range [0, n) split into contiguous chunks,
// one per worker. When flops < DefaultThreshold, only one worker is
// available, or n is too small to split, body runs once inline as
// body(0, n) — the serial fast path.
//
// Each index is covered by exactly one body call, and calls never overlap
// ranges, so a kernel that writes output region i only from the body call
// owning i is race-free and bitwise-deterministic at any worker count.
func Do(n int, flops int64, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := Workers()
	if flops < DefaultThreshold || workers == 1 || n < 2 {
		body(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// DoWeighted is Do for indices of unequal cost. prefix holds the running
// weight of the n = len(prefix)-1 indices — index i weighs
// prefix[i+1]-prefix[i] ≥ 0, as a CSR's row pointers weigh its rows by their
// stored entries — and the chunks are cut where it crosses each worker's
// equal share of the total, so a few heavy indices at one end do not leave
// one worker with most of the work. Chunks are contiguous, disjoint and
// cover [0, n) exactly as Do's do, with the same serial fast path, so the
// same kernels stay race-free and bitwise-deterministic under it.
func DoWeighted(prefix []int64, flops int64, body func(lo, hi int)) {
	n := len(prefix) - 1
	if n <= 0 {
		return
	}
	workers := Workers()
	if flops < DefaultThreshold || workers == 1 || n < 2 {
		body(0, n)
		return
	}
	total := prefix[n] - prefix[0]
	var wg sync.WaitGroup
	for w, lo := 1, 0; w <= workers && lo < n; w++ {
		hi := n
		if w < workers {
			share := prefix[0] + total*int64(w)/int64(workers)
			hi = lo + sort.Search(n-lo, func(i int) bool { return prefix[lo+i] >= share })
		}
		if hi == lo {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// DoAligned is Do with every chunk boundary rounded up to a multiple of
// align — the tile-aware variant the register-blocked kernels use so a
// worker boundary never splits an MR-row register tile (the split would
// only cost speed, never bits: each output element is still accumulated
// by exactly one goroutine in a fixed order, whatever the partition).
// align < 2 degenerates to Do. The last chunk absorbs the remainder, so
// every index is still covered exactly once.
func DoAligned(n, align int, flops int64, body func(lo, hi int)) {
	if align < 2 {
		Do(n, flops, body)
		return
	}
	if n <= 0 {
		return
	}
	workers := Workers()
	if flops < DefaultThreshold || workers == 1 || n < 2*align {
		body(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	chunk = (chunk + align - 1) / align * align
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Grid picks a chunk decomposition of [0, n) for kernels that need
// per-chunk accumulators with a deterministic reduction: it returns the
// chunk length and chunk count such that chunks := ⌈n/chunk⌉ ≤ maxChunks
// and (except possibly the last chunk) every chunk spans at least
// minChunk indices. The decomposition depends only on n, minChunk and
// maxChunks — never on the worker count — so a reduction that sums chunk
// partials in chunk order yields the same floating-point result at every
// GOMAXPROCS.
//
// A count of 1 means chunking is pointless (n too small); callers should
// take their serial path.
func Grid(n, minChunk, maxChunks int) (chunk, count int) {
	if minChunk < 1 {
		minChunk = 1
	}
	if maxChunks < 1 {
		maxChunks = 1
	}
	if n <= minChunk {
		return n, 1
	}
	count = n / minChunk // ≥ 1 full chunks
	if count > maxChunks {
		count = maxChunks
	}
	chunk = (n + count - 1) / count
	count = (n + chunk - 1) / chunk
	return chunk, count
}
