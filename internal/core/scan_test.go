package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/par"
	"csrplus/internal/topk"
)

// The fixture Test_Scan and Benchmark_Scan share: random factors with
// signed zeros (syntheticIndex), two full single-source bands plus a ragged
// 37-row tail, one all-NaN row of Z inside the first band and one row of
// negative zeros on the band edge.
const scanN, scanRank = 2*scanMaxBand + 37, 6

func scanFixture() *Index {
	ix := syntheticIndex(scanN, scanRank, 3)
	for j := 0; j < scanRank; j++ {
		ix.z.F64[1234*scanRank+j] = math.NaN()
		ix.z.F64[scanMaxBand*scanRank+j] = math.Copysign(0, -1)
	}
	return ix
}

func scanQuerySets() [][]int {
	wide := make([]int, 48) // past par's flop threshold, 682-row bands
	for i := range wide {
		wide[i] = (i * 977) % scanN
	}
	return [][]int{
		{4100},                            // a shard cut
		{1234},                            // the NaN row queries itself
		{17, 17, 4100, scanMaxBand, 8000}, // duplicates, a cut, a band edge
		wide,
	}
}

// Test_Scan holds the three consumers of the one phase-II loop to each
// other by bits: ScoreRows over every owned row is PartialInto's band, and
// PartialTopK is a selection over PartialInto's columns summed in query
// order — on every tier, at rank 1, truncated and full, on one worker and
// three, for shard cuts that land on query nodes. Then it checks that the
// loop allocates nothing per band once its pooled scratch is warm.
func Test_Scan(t *testing.T) {
	exact := scanFixture()
	ctx := context.Background()
	cuts := [][]int{
		{0, scanN},
		{0, 17, 4100, 4101, 8000, scanN}, // cuts on query nodes, a one-row shard
	}
	defer par.SetMaxWorkers(par.SetMaxWorkers(0))
	for _, tier := range []Tier{TierF64, TierF32, TierI8} {
		ix, err := exact.Quantize(tier)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			par.SetMaxWorkers(workers)
			for _, rank := range []int{1, 3, 0} {
				for _, queries := range scanQuerySets() {
					uq := ix.u.PickRows(queries)
					for _, bounds := range cuts {
						for s := 0; s+1 < len(bounds); s++ {
							sh, err := ix.Shard(bounds[s], bounds[s+1])
							if err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("tier=%v workers=%d rank=%d queries=%v shard=[%d, %d)", tier, workers, rank, queries[:min(5, len(queries))], sh.lo, sh.hi)
							checkScanConsumers(t, ctx, label, sh, queries, uq, rank)
						}
					}
				}
			}
		}

		// 129 bands of 64 rows against one band of all of them: what the
		// scan allocates may not depend on how many bands it walks. A pool
		// miss (the GC emptied it, or -race dropped the Put) costs the
		// scratch's five allocations once per scan, never once per band.
		par.SetMaxWorkers(1)
		uq := ix.u.PickRows([]int{5, 9})
		visit := func(int, []float64) {}
		for _, band := range []int{scanMinBand, scanN} {
			allocs := testing.AllocsPerRun(20, func() {
				if err := ix.scan(ctx, uq, 0, 0, scanN, band, nil, visit); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 5 {
				t.Errorf("tier=%v: a scan in %d-row bands makes %v allocations, want none per band", tier, band, allocs)
			}
		}
		// Whatever scratch the pool hands out next, it must have let go of
		// the last caller's destination (a worker's boot-time validation
		// block stayed resident through it).
		if err := ix.PartialInto(ctx, []int{5, 9}, uq, 0, dense.NewMat(scanN, 2)); err != nil {
			t.Fatal(err)
		}
		sc := scanPool.Get().(*scanScratch)
		if sc.view.Data != nil {
			t.Errorf("tier=%v: pooled scan scratch still views a caller's destination", tier)
		}
		scanPool.Put(sc)
	}
}

// checkScanConsumers compares the three consumers on one shard.
func checkScanConsumers(t *testing.T, ctx context.Context, label string, sh *IndexShard, queries []int, uq *dense.Mat, rank int) {
	t.Helper()
	cols := len(queries)
	block := dense.NewMat(sh.Rows(), cols)
	if err := sh.PartialInto(ctx, queries, uq, rank, block); err != nil {
		t.Fatal(err)
	}

	rows := make([]int, sh.Rows())
	for i := range rows {
		rows[i] = sh.lo + i
	}
	scores, err := sh.ScoreRows(ctx, queries, uq, rows, rank)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range scores {
		if w := block.Data[i]; math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("%s: ScoreRows[%d, %d] = %v (%#x), PartialInto has %v (%#x)", label, rows[i/cols], i%cols, v, math.Float64bits(v), w, math.Float64bits(w))
		}
	}

	ranked := block.Col(0, nil) // a single source is ranked as it stands
	if cols > 1 {
		for i := range ranked {
			ranked[i] = 0
			for _, v := range block.Row(i) {
				ranked[i] += v
			}
		}
	}
	for _, k := range []int{1, 10, math.MaxInt} {
		want := topk.SelectRange(ranked, min(k, sh.Rows()), sh.lo, excludeSet(queries))
		got, err := sh.PartialTopK(ctx, queries, uq, k, rank)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("%s k=%d:\nPartialTopK             %v\nselect over PartialInto %v", label, k, got, want)
		}
	}
}

// Benchmark_Scan times the three consumers on Test_Scan's fixture.
//
//	go test -run='^$' -bench=_Scan -benchmem ./internal/core/
func Benchmark_Scan(b *testing.B) {
	exact := scanFixture()
	ctx := context.Background()
	rows := make([]int, 256)
	for i := range rows {
		rows[i] = (i * 31) % scanN
	}
	for _, tier := range []Tier{TierF64, TierI8} {
		ix, err := exact.Quantize(tier)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range []int{1, 16} {
			queries := scanQuerySets()[3][:q]
			uq := ix.u.PickRows(queries)
			block := dense.NewMat(scanN, q)
			name := fmt.Sprintf("%v/q=%d", tier, q)
			b.Run("PartialInto/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := ix.PartialInto(ctx, queries, uq, 0, block); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("PartialTopK/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ix.PartialTopK(ctx, queries, uq, 100, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("ScoreRows/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := ix.ScoreRows(ctx, queries, uq, rows, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
