package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"csrplus/internal/dense"
)

// TestCheckStored holds the one validity rule of the stored-row list: as
// many ids as rows, fewer than the range holds, strictly ascending inside
// it; nil exactly when every row is stored.
func TestCheckStored(t *testing.T) {
	shard := func(lo, hi, rows int, ids []int32) *IndexShard {
		m := &dense.Typed{Kind: dense.F64, Rows: rows, Cols: 2, F64: make([]float64, rows*2)}
		return &IndexShard{n: 20, lo: lo, hi: hi, c: 0.6, rank: 2, ids: ids, f: m}
	}
	for name, sh := range map[string]*IndexShard{
		"every row, unlisted": shard(4, 9, 5, nil),
		"some rows":           shard(4, 9, 3, []int32{4, 6, 8}),
		"no rows":             shard(4, 9, 0, []int32{}),
	} {
		if err := sh.CheckStored(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for name, sh := range map[string]*IndexShard{
		"more rows than nodes":       shard(4, 9, 6, nil),
		"fewer rows, unlisted":       shard(4, 9, 3, nil),
		"every row, listed":          shard(4, 9, 5, []int32{4, 5, 6, 7, 8}),
		"more ids than rows":         shard(4, 9, 2, []int32{4, 6, 8}),
		"descending":                 shard(4, 9, 3, []int32{4, 8, 6}),
		"repeated":                   shard(4, 9, 3, []int32{4, 6, 6}),
		"below lo":                   shard(4, 9, 2, []int32{3, 6}),
		"at hi":                      shard(4, 9, 2, []int32{6, 9}),
		"negative":                   shard(4, 9, 2, []int32{-1, 6}),
		"nothing stored, unlisted":   shard(4, 9, 0, nil),
		"listed rows beyond the end": shard(0, 20, 1, []int32{20}),
	} {
		if err := sh.CheckStored(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCompactIsExact drops the all-zero rows of an index that stores every
// row and holds the result to the original: same answers, bounds and
// quantization by bits on every tier; only rows that are +0 throughout go;
// an index with nothing to drop is returned as it is.
func TestCompactIsExact(t *testing.T) {
	full, compact := sparseScanFixture(syntheticIndex(600, 5, 9))
	// A row of -0, a row with a single non-zero entry: both must stay.
	for j := 0; j < 5; j++ {
		full.f.F64[2*5+j] = math.Copysign(0, -1)
	}
	full.f.F64[3*5+4] = 1
	compact = full.Compact()
	if _, ok := compact.row(2); !ok || scanStored(2) {
		t.Fatal("a row of negative zeros was dropped (or the fixture stores row 2 anyway)")
	}
	if _, ok := compact.row(3); !ok || scanStored(3) {
		t.Fatal("a row that is zero but for one entry was dropped (or the fixture stores row 3 anyway)")
	}
	if err := compact.CheckStored(); err != nil || compact.Stored() >= full.Stored() {
		t.Fatalf("compacted %d rows to %d: %v", full.Stored(), compact.Stored(), err)
	}
	if again := compact.Compact(); again != compact {
		t.Fatal("compacting a compacted index built a new one")
	}
	for _, tier := range []Tier{TierF64, TierF32, TierI8} {
		want, err := full.Quantize(tier)
		if err != nil {
			t.Fatal(err)
		}
		got, err := compact.Quantize(tier)
		if err != nil {
			t.Fatal(err)
		}
		queries := []int{2, 3, 0, 599, 100}
		wantBitwise(t, tier.String()+" answers", queryBits(t, got, queries), queryBits(t, want, queries))
		wantBitwise(t, tier.String()+" F column maxima", got.ColMaxes(), want.ColMaxes())
		wantBitwise(t, tier.String()+" fqerr", got.fqerr, want.fqerr)
		if g, w := got.TruncationBound(0), want.TruncationBound(0); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%v: TruncationBound = %v compacted, %v with every row", tier, g, w)
		}
		if got.Bytes() >= want.Bytes() {
			t.Fatalf("%v: compacted index is %d bytes, with every row %d", tier, got.Bytes(), want.Bytes())
		}
		// Compacting after quantizing drops at least the same rows (more,
		// where small entries round to zero codes) and answers the same.
		wantBitwise(t, tier.String()+" compacted after quantizing", queryBits(t, want.Compact(), queries), queryBits(t, want, queries))
	}
}

// TestQueryRejectsNonFiniteRows pins the precondition the implicit rows
// stand on: a zero row of F scores +0 only against finite query rows, so
// every consumer refuses the others, whether or not it leaves rows out.
func TestQueryRejectsNonFiniteRows(t *testing.T) {
	full, compact := sparseScanFixture(syntheticIndex(300, 4, 2))
	ctx := context.Background()
	for _, ix := range []*Index{full, compact} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			uq := ix.gatherF([]int{0, 1})
			uq.Data[5] = bad
			if _, err := ix.PartialTopK(ctx, []int{0, 1}, uq, 3); !errors.Is(err, ErrParams) {
				t.Errorf("PartialTopK over a query row holding %v: err = %v, want ErrParams", bad, err)
			}
			if _, err := ix.ScoreRows(ctx, []int{0, 1}, uq, []int{7}); !errors.Is(err, ErrParams) {
				t.Errorf("ScoreRows over a query row holding %v: err = %v, want ErrParams", bad, err)
			}
			if err := ix.PartialInto(ctx, []int{0, 1}, uq, 0, dense.NewMat(300, 2)); !errors.Is(err, ErrParams) {
				t.Errorf("PartialInto over a query row holding %v: err = %v, want ErrParams", bad, err)
			}
		}
	}
}

// TestDynamicOverCompactedIndex builds the ingestion state over an index
// that leaves rows out and over its every-row twin: an edge into a node
// whose row is implicit (its first in-link) applies with the same drift, and
// the live graphs come out the same.
func TestDynamicOverCompactedIndex(t *testing.T) {
	compact := compactIndex(t)
	twin := &Index{IndexShard: compact.IndexShard}
	twin.ids, twin.f = nil, dense.TypedFromMat(compact.denseF64())

	g := compactGraph(t)
	a, err := NewDynamic(g, compact)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDynamic(g, twin)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{0, 3}, {5, 3}, {7, 11}, {3, 8}, {47, 0}} { // 3, 7, 11 and 47 have no in-link
		_, da, err := a.ApplyEdge(e[0], e[1], 1, true)
		if err != nil {
			t.Fatal(err)
		}
		_, db, err := b.ApplyEdge(e[0], e[1], 1, true)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(da) != math.Float64bits(db) {
			t.Fatalf("edge %v: drift %v over the compacted index, %v over its twin", e, da, db)
		}
	}
	ga, err := a.MaterializeGraph()
	if err != nil {
		t.Fatal(err)
	}
	gb, err := b.MaterializeGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !sameCSR(ga.Adj(), gb.Adj()) || a.Drift() != b.Drift() {
		t.Fatal("live graphs or drift differ")
	}
}
