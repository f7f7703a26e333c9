package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/par"
	"csrplus/internal/topk"
)

// syntheticIndex wraps random factors in an Index without running phase
// I: the top-k kernels only read Z, U and c, and random factors (with
// signed zeros sprinkled into U) reach row counts that span several score
// bands for the price of a rand loop.
func syntheticIndex(n, r int, seed int64) *Index {
	rng := rand.New(rand.NewSource(seed))
	f := dense.NewMat(n, r)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64() / 3
		switch rng.Intn(16) {
		case 0:
			f.Data[i] = 0
		case 1:
			f.Data[i] = math.Copysign(0, -1)
		}
	}
	return &Index{IndexShard: IndexShard{n: n, hi: n, c: 0.6, rank: r, f: dense.TypedFromMat(f)}}
}

func sameBits(a, b []topk.Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

func excludeSet(queries []int) map[int]bool {
	ex := make(map[int]bool, len(queries))
	for _, q := range queries {
		ex[q] = true
	}
	return ex
}

// columnTopK is the unfused reference: the materialised n x |Q| block,
// its columns summed onto zeros in query order (csrplus.Engine.TopKMulti's
// loop), one selection over the full vector. A single source selects from
// its column as it stands, as Engine.TopK does.
func columnTopK(t *testing.T, ix *Index, queries []int, k int) []topk.Item {
	t.Helper()
	s, err := ix.QueryInto(queries, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) == 1 {
		return topk.Select(s.Col(0, nil), k, queries[0])
	}
	colSum := make([]float64, ix.N())
	for j := range queries {
		for i := range colSum {
			colSum[i] += s.At(i, j)
		}
	}
	return topk.SelectSet(colSum, k, excludeSet(queries))
}

// The fused scan — banded tile, row sums, streaming selector, per-worker
// merge — must equal the unfused column path bit for bit on every tier,
// wherever the shard cuts, the band edges and the worker boundaries fall.
func Test_PartialTopKMatchesUnfused(t *testing.T) {
	const n, r = 2*scanMaxBand + 37, 6
	exact := syntheticIndex(n, r, 1)
	ctx := context.Background()
	wide := make([]int, 48) // n·r·48 multiply-adds: past par's threshold, 682-row bands
	for i := range wide {
		wide[i] = (i * 977) % n
	}
	wide[7] = wide[3]
	querySets := [][]int{
		{5},
		{n - 1},
		{scanMaxBand}, // first row of the second band
		{3, scanMaxBand - 1, n - 2},
		{17, 17, 4100, 8000, 17},
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
		wide,
	}
	cuts := [][]int{
		{0, n},
		{0, scanMaxBand, n},        // a shard that is exactly one band
		{0, 1, scanMaxBand + 5, n}, // a one-row shard, bands offset from the shard edge
		{0, 4100, 4101, 8000, n},   // cuts on query nodes
	}
	defer par.SetMaxWorkers(par.SetMaxWorkers(0))
	for _, workers := range []int{1, 3} {
		par.SetMaxWorkers(workers)
		for _, tier := range []dense.Kind{dense.F64, dense.F32, dense.I8} {
			ix, err := exact.Quantize(tier)
			if err != nil {
				t.Fatal(err)
			}
			for _, queries := range querySets {
				uq := ix.gatherF(queries)
				for _, k := range []int{1, 10, 100} {
					want := columnTopK(t, ix, queries, k)
					for _, bounds := range cuts {
						var lists [][]topk.Item
						for s := 0; s+1 < len(bounds); s++ {
							sh, err := ix.Shard(bounds[s], bounds[s+1])
							if err != nil {
								t.Fatal(err)
							}
							items, err := sh.PartialTopK(ctx, queries, uq, k)
							if err != nil {
								t.Fatal(err)
							}
							lists = append(lists, items)
						}
						if got := topk.Merge(k, lists...); !sameBits(got, want) {
							t.Fatalf("workers=%d tier=%v queries=%v k=%d cuts=%v:\nfused   %v\nunfused %v", workers, tier, queries, k, bounds, got, want)
						}
					}
				}
			}
		}
	}
}

// The tile is sized by the query set, never by the shard.
func TestTopKBand(t *testing.T) {
	for _, c := range []struct{ cols, want int }{{1, scanMaxBand}, {8, scanMaxBand}, {16, 2048}, {48, 682}, {512, scanMinBand}, {100000, scanMinBand}} {
		if got := scanBand(c.cols); got != c.want {
			t.Errorf("scanBand(%d) = %d, want %d", c.cols, got, c.want)
		}
	}
}

func TestPartialTopKValidation(t *testing.T) {
	ix := syntheticIndex(50, 4, 2)
	ctx := context.Background()
	uq := ix.gatherF([]int{1, 2})
	if _, err := ix.PartialTopK(ctx, nil, uq, 3); !errors.Is(err, ErrParams) {
		t.Fatalf("empty query set: err = %v, want ErrParams", err)
	}
	if _, err := ix.PartialTopK(ctx, []int{1}, uq, 3); !errors.Is(err, ErrParams) {
		t.Fatalf("uq of the wrong shape: err = %v, want ErrParams", err)
	}
	if items, err := ix.PartialTopK(ctx, []int{1, 2}, uq, 0); err != nil || len(items) != 0 {
		t.Fatalf("k=0: items=%v err=%v", items, err)
	}
	// k is an upper bound, never an allocation size: 2^63 used to be handed to make().
	if items, err := ix.PartialTopK(ctx, []int{1, 2}, uq, math.MaxInt); err != nil || len(items) != 48 {
		t.Fatalf("k=MaxInt over 50 rows, 2 of them queries: %d items, err=%v", len(items), err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := ix.PartialTopK(cancelled, []int{1, 2}, uq, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v", err)
	}
}
