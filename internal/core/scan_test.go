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

// The fixture Test_Scan and Benchmark_Scan share: a random factor with
// signed zeros (syntheticIndex), two full single-source bands plus a ragged
// 37-row tail, one all-NaN row of F inside the first band and one row of
// negative zeros on the band edge.
const scanN, scanRank = 2*scanMaxBand + 37, 6

func scanFixture() *Index {
	ix := syntheticIndex(scanN, scanRank, 3)
	for j := 0; j < scanRank; j++ {
		ix.f.F64[1234*scanRank+j] = math.NaN()
		ix.f.F64[scanMaxBand*scanRank+j] = math.Copysign(0, -1)
	}
	return ix
}

// scanStored reports whether the sparse fixtures keep row i: 29 rows in a
// hundred, the share of WT's nodes that have an in-link, in runs short
// enough that every band holds some and long enough ([4102, 4106), say)
// that a shard can be cut with none — and the two rows scanFixture marks.
func scanStored(i int) bool { return i*19%100 < 29 || i == 1234 || i == scanMaxBand }

// sparseScanFixture is ix with the rows scanStored drops zeroed, as the
// index every consumer has always scanned, and its compacted twin, which
// stores only the rest.
func sparseScanFixture(ix *Index) (full, compact *Index) {
	var ids []int32
	var rows []float64
	for i := 0; i < ix.n; i++ {
		row := ix.f.F64[i*ix.rank : (i+1)*ix.rank]
		if scanStored(i) {
			ids, rows = append(ids, int32(i)), append(rows, row...)
		} else {
			clear(row)
		}
	}
	return ix, ix.withFactor(ids, &dense.Typed{Kind: dense.F64, Rows: len(ids), Cols: ix.rank, F64: rows}, nil)
}

// negativeScanFixture makes every score of a stored row negative or zero —
// F at or below zero, scanned against query rows flipped to at or above
// (flipQueries) — so that the rows left out, at +0, outrank them all.
func negativeScanFixture() (full, compact *Index) {
	ix := syntheticIndex(scanN, scanRank, 5)
	for i, v := range ix.f.F64 {
		ix.f.F64[i] = -math.Abs(v)
	}
	return sparseScanFixture(ix)
}

// flipQueries turns gathered query rows of negativeScanFixture non-negative.
func flipQueries(uq *dense.Mat) *dense.Mat {
	for i, v := range uq.Data {
		uq.Data[i] = math.Abs(v)
	}
	return uq
}

func scanQuerySets() [][]int {
	wide := make([]int, 48) // past par's flop threshold, 682-row bands
	for i := range wide {
		wide[i] = (i * 977) % scanN
	}
	return [][]int{
		{4100},                            // a shard cut
		{1233},                            // beside the NaN row (as a query it is refused)
		{17, 17, 4100, scanMaxBand, 8000}, // duplicates, a cut, a band edge
		wide,
		{4103},              // a row the sparse fixtures leave out, in a cut that stores nothing
		{2, 4103, 17, 2, 6}, // implicit and stored sources, a duplicate
	}
}

// Test_Scan holds the three consumers of the one phase-II loop to each
// other by bits: ScoreRows over every owned row is PartialInto's band, and
// PartialTopK is a selection over PartialInto's columns summed in query
// order — on every tier, on one worker and three, for shard cuts that land on query nodes. It then holds a
// compacted index to the scan of its uncompacted twin the same way: every
// block, every pair and every list, for k up to, one past and far past the
// rows stored, with sources and excluded nodes among the rows left out,
// across a cut that stores nothing, and with every stored score negative.
// Last it checks that the loop allocates nothing per band once its pooled
// scratch is warm.
func Test_Scan(t *testing.T) {
	ctx := context.Background()
	cuts := [][]int{
		{0, scanN},
		// Cuts on query nodes, one-row shards, and — in the sparse
		// fixtures — four rows that store nothing.
		{0, 17, 4100, 4101, 4102, 4106, 8000, scanN},
	}
	type fixture struct {
		name          string
		full, compact *Index // compact is nil where there is nothing to leave out
		flip          bool   // scan against non-negative query rows
	}
	fixtures := []fixture{{name: "dense", full: scanFixture()}}
	sparse, compact := sparseScanFixture(scanFixture())
	fixtures = append(fixtures, fixture{"sparse", sparse, compact, false})
	sparse, compact = negativeScanFixture()
	fixtures = append(fixtures, fixture{"negative", sparse, compact, true})
	for _, fx := range fixtures[1:] {
		want := 0
		for i := 0; i < scanN; i++ {
			if scanStored(i) {
				want++
			}
		}
		if err := fx.compact.CheckStored(); err != nil || fx.compact.Stored() != want {
			t.Fatalf("%s: compacted fixture stores %d rows, want %d of %d (%v)", fx.name, fx.compact.Stored(), want, scanN, err)
		}
	}

	defer par.SetMaxWorkers(par.SetMaxWorkers(0))
	for _, fx := range fixtures {
		for _, tier := range []dense.Kind{dense.F64, dense.F32, dense.I8} {
			ix, err := fx.full.Quantize(tier)
			if err != nil {
				t.Fatal(err)
			}
			var twin *Index
			if fx.compact != nil {
				if twin, err = fx.compact.Quantize(tier); err != nil {
					t.Fatal(err)
				}
			}
			for _, workers := range []int{1, 3} {
				par.SetMaxWorkers(workers)
				for _, queries := range scanQuerySets() {
					uq := ix.gatherF(queries)
					if twin != nil {
						wantBitwise(t, fx.name+" gathered F rows", twin.gatherF(queries).Data, uq.Data)
					}
					if fx.flip {
						uq = flipQueries(uq)
					}
					for _, bounds := range cuts {
						for s := 0; s+1 < len(bounds); s++ {
							sh, err := ix.Shard(bounds[s], bounds[s+1])
							if err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("%s tier=%v workers=%d queries=%v shard=[%d, %d)", fx.name, tier, workers, queries[:min(5, len(queries))], sh.lo, sh.hi)
							if twin == nil {
								checkScanConsumers(t, ctx, label, sh, queries, uq, 10)
								continue
							}
							csh, err := twin.Shard(bounds[s], bounds[s+1])
							if err != nil {
								t.Fatal(err)
							}
							// One past the rows stored: the first list that
							// must reach into the rows left out.
							want := checkScanConsumers(t, ctx, label, sh, queries, uq, csh.Stored()+1)
							got := checkScanConsumers(t, ctx, label+" compacted", csh, queries, uq, csh.Stored()+1)
							wantBitwise(t, label+": compacted PartialInto", got.block, want.block)
							for i := range want.lists {
								if !sameBits(got.lists[i], want.lists[i]) {
									t.Fatalf("%s list %d:\ncompacted   %v\nuncompacted %v", label, i, got.lists[i], want.lists[i])
								}
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
			uq := ix.gatherF([]int{5, 9})
			visit := func(int, []float64) {}
			for _, band := range []int{scanMinBand, scanN} {
				allocs := testing.AllocsPerRun(20, func() {
					if err := ix.scan(ctx, uq, 0, ix.Stored(), band, nil, visit); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > 5 {
					t.Errorf("%s tier=%v: a scan in %d-row bands makes %v allocations, want none per band", fx.name, tier, band, allocs)
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
				t.Errorf("%s tier=%v: pooled scan scratch still views a caller's destination", fx.name, tier)
			}
			scanPool.Put(sc)
		}
	}
}

// scanAnswers is what one shard's consumers answered: PartialInto's block
// and PartialTopK's list for each k tried.
type scanAnswers struct {
	block []float64
	lists [][]topk.Item
}

// checkScanConsumers compares the three consumers on one shard — the
// lists at k = 1, 10, k, and more than any shard holds — and returns what
// they agreed on.
func checkScanConsumers(t *testing.T, ctx context.Context, label string, sh *IndexShard, queries []int, uq *dense.Mat, k int) scanAnswers {
	t.Helper()
	cols := len(queries)
	block := dense.NewMat(sh.Rows(), cols)
	for i := range block.Data {
		block.Data[i] = math.Inf(1) // whatever PartialInto leaves alone shows
	}
	if err := sh.PartialInto(ctx, queries, uq, 0, block); err != nil {
		t.Fatal(err)
	}

	rows := make([]int, sh.Rows())
	for i := range rows {
		rows[i] = sh.lo + i
	}
	scores, err := sh.ScoreRows(ctx, queries, uq, rows)
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
	// Query nodes are never ranked, so their +1 drops out of the sums.
	answers := scanAnswers{block: block.Data}
	for _, k := range []int{1, 10, k, math.MaxInt} {
		want := topk.SelectRange(ranked, min(k, sh.Rows()), sh.lo, excludeSet(queries))
		got, err := sh.PartialTopK(ctx, queries, uq, k)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("%s k=%d:\nPartialTopK             %v\nselect over PartialInto %v", label, k, got, want)
		}
		answers.lists = append(answers.lists, got)
	}
	return answers
}

// Benchmark_Scan times the three consumers on Test_Scan's fixtures: the
// dense one, and the sparse one compacted — 29 % of the rows stored, WT's
// share — whose names carry /stored=29%.
//
//	go test -run='^$' -bench=_Scan -benchmem ./internal/core/
func Benchmark_Scan(b *testing.B) {
	ctx := context.Background()
	rows := make([]int, 256)
	for i := range rows {
		rows[i] = (i * 31) % scanN
	}
	_, compact := sparseScanFixture(scanFixture())
	for _, fx := range []struct {
		suffix string
		ix     *Index
	}{{"", scanFixture()}, {"/stored=29%", compact}} {
		for _, tier := range []dense.Kind{dense.F64, dense.I8} {
			ix, err := fx.ix.Quantize(tier)
			if err != nil {
				b.Fatal(err)
			}
			for _, q := range []int{1, 16} {
				queries := scanQuerySets()[3][:q]
				uq := ix.gatherF(queries)
				block := dense.NewMat(scanN, q)
				name := fmt.Sprintf("%v/q=%d%s", tier, q, fx.suffix)
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
						if _, err := ix.PartialTopK(ctx, queries, uq, 100); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run("ScoreRows/"+name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := ix.ScoreRows(ctx, queries, uq, rows); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
