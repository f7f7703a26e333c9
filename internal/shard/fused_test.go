package shard_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"csrplus"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/shard"
	"csrplus/internal/topk"
)

// unfusedTopK is the reference every fused answer is held to: the column
// path — the n x |Q| block, its columns summed in query order, one
// selection over the full vector (columnTopK below; it is
// csrplus.Engine.TopK / TopKMulti).
func unfusedTopK(t testing.TB, ix *core.Index, queries []int, k int) []topk.Item {
	t.Helper()
	_, items, err := columnTopK(ix, queries, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

func assertSameBits(t testing.TB, label string, got, want []topk.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Node != want[i].Node || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: item %d is (%d, %v), want (%d, %v)", label, i, got[i].Node, got[i].Score, want[i].Node, want[i].Score)
		}
	}
}

// TestRouterTopKMatchesUnfused holds the served top-k path — gather,
// banded scan, row sums, streaming selection, merge — to the unfused reference bit
// for bit across tier x shard count x query shape (single,
// boundary, multi-source, duplicates; at K > 1 every set has nodes the
// answering shard does not own). SHARD_K pins the shard count, so CI's
// shard matrix runs it once per K.
func TestRouterTopKMatchesUnfused(t *testing.T) {
	_, exact := testEngineIndex(t, 1)
	ctx := context.Background()
	for _, tier := range []core.Tier{core.TierF64, core.TierF32, core.TierI8} {
		ix, err := exact.Quantize(tier)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range shardCounts(t) {
			rt, err := shard.NewRouterFromIndex(ix, shards)
			if err != nil {
				t.Fatal(err)
			}
			for _, queries := range querySets() {
				for _, k := range []int{1, 10, testN} {
					got, err := rt.TopK(ctx, queries, k)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("tier=%v K=%d queries=%v k=%d", tier, shards, queries, k)
					assertSameBits(t, label, got, unfusedTopK(t, ix, queries, k))
				}
			}
		}
	}
}

// The serving-scale fixture Test_TopKFused and Benchmark_TopKFused share:
// the benchmark's shape (csrload's WT stand-in is n = 131072, r = 16).
const fusedN, fusedRank = 131072, 16

var (
	fusedOnce sync.Once
	fusedIx   *core.Index
	fusedErr  error
)

func fusedIndex(tb testing.TB) *core.Index {
	tb.Helper()
	fusedOnce.Do(func() {
		eng, err := csrplus.NewEngine(randomGraph(tb, fusedN, 16), csrplus.Options{Rank: fusedRank})
		if err != nil {
			fusedErr = err
			return
		}
		fusedIx, _ = eng.CoreIndex()
	})
	if fusedErr != nil {
		tb.Fatal(fusedErr)
	}
	return fusedIx
}

func fusedQueries(q int) []int {
	rng := rand.New(rand.NewSource(int64(q)))
	queries := make([]int, q)
	for i := range queries {
		queries[i] = rng.Intn(fusedN)
	}
	return queries
}

// Test_TopKFused is the regression test that n x |Q| never comes back: a
// 16-source top-100 over n = 131072 must allocate O(k + band) — the
// selectors, the gathered rows, the per-worker lists; the 256 KiB score
// tile, the row sums and a quantized tier's dequantisation buffer are
// pooled — and stay under 64 KB a call, where the column path it replaced
// allocated an n x |Q| scratch (16 MB), |Q| column copies and an n-vector.
// It holds on a quantized tier too (the typed kernel must not allocate per
// band) and checks the answer at a size where every slot scans many bands
// on more than one worker. The byte limit is not applied under -race,
// where sync.Pool drops a quarter of the tiles it is handed back.
func Test_TopKFused(t *testing.T) {
	exact := fusedIndex(t)
	ctx := context.Background()
	queries := fusedQueries(16)
	for _, tier := range []core.Tier{core.TierF64, core.TierI8} {
		ix, err := exact.Quantize(tier)
		if err != nil {
			t.Fatal(err)
		}
		want := unfusedTopK(t, ix, queries, 100)
		for _, shards := range []int{1, 2} {
			rt, err := shard.NewRouterFromIndex(ix, shards)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("tier=%v K=%d", tier, shards)
			got, err := rt.TopK(ctx, queries, 100)
			if err != nil {
				t.Fatal(err)
			}
			assertSameBits(t, label, got, want)

			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := rt.TopK(ctx, queries, 100); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perCall := (after.TotalAlloc - before.TotalAlloc) / runs
			allocs := (after.Mallocs - before.Mallocs) / runs
			t.Logf("%s: %d B and %d allocations per Router.TopK(|Q|=16, k=100, n=%d)", label, perCall, allocs, fusedN)
			if perCall > 64<<10 && !raceEnabled {
				t.Fatalf("%s: Router.TopK allocates %d B per call, want under 64 KB: something of length n is back on the top-k path", label, perCall)
			}
		}
	}
}

// columnTopK is the path /topk was served from before the fused scan, kept
// as the benchmark's baseline: the n x |Q| block into a reused scratch,
// one copy per column, the columns summed into an n-vector, one selection.
func columnTopK(ix *core.Index, queries []int, k int, scratch *dense.Mat) (*dense.Mat, []topk.Item, error) {
	s, err := ix.QueryInto(queries, scratch, nil)
	if err != nil {
		return nil, nil, err
	}
	cols := make([][]float64, len(queries))
	for j := range cols {
		cols[j] = s.Col(j, nil)
	}
	if len(queries) == 1 {
		return s, topk.Select(cols[0], k, queries[0]), nil
	}
	colSum := make([]float64, ix.N())
	exclude := make(map[int]bool, len(queries))
	for j, col := range cols {
		for i, v := range col {
			colSum[i] += v
		}
		exclude[queries[j]] = true
	}
	return s, topk.SelectSet(colSum, k, exclude), nil
}

// Benchmark_TopKFused prices one top-k request on the served path against
// the column path it replaced, on Test_TopKFused's fixture.
//
//	go test -run='^$' -bench=_TopKFused -benchmem ./internal/shard/
func Benchmark_TopKFused(b *testing.B) {
	ix := fusedIndex(b)
	rt, err := shard.NewRouterFromIndex(ix, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []int{1, 16} {
		queries := fusedQueries(q)
		for _, k := range []int{10, 100} {
			b.Run(fmt.Sprintf("fused/Q=%d/k=%d", q, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := rt.TopK(context.Background(), queries, k); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("column/Q=%d/k=%d", q, k), func(b *testing.B) {
				var scratch *dense.Mat
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, _, err := columnTopK(ix, queries, k, scratch)
					if err != nil {
						b.Fatal(err)
					}
					scratch = s
				}
			})
		}
	}
}
