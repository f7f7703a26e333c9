package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/graph"
)

func TestParseTier(t *testing.T) {
	good := map[string]dense.Kind{
		"": dense.F64, "none": dense.F64, "f64": dense.F64, "float64": dense.F64,
		"f32": dense.F32, "float32": dense.F32,
		"int8": dense.I8, "i8": dense.I8,
	}
	for s, want := range good {
		got, err := ParseTier(s)
		if err != nil || got != want {
			t.Errorf("ParseTier(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"f16", "int4", "exact", "64"} {
		if _, err := ParseTier(s); !errors.Is(err, ErrParams) {
			t.Errorf("ParseTier(%q) err = %v, want ErrParams", s, err)
		}
	}
}

// TestQuantizedErrorWithinBoundOnEvalGraph is the tier acceptance
// criterion at evaluation scale: on a generated graph the measured
// entrywise deviation of every quantized answer from the exact one stays
// within QuantizationBound.
func TestQuantizedErrorWithinBoundOnEvalGraph(t *testing.T) {
	g, err := graph.ErdosRenyi(200, 1400, 3)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Precompute(g, Options{Rank: 8})
	if err != nil {
		t.Fatal(err)
	}
	n := exact.N()
	queries := []int{0, 17, n / 2, n - 1}
	ref, err := exact.Query(queries, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, tier := range []dense.Kind{dense.F32, dense.I8} {
		q, err := exact.Quantize(tier)
		if err != nil {
			t.Fatal(err)
		}
		bound := q.QuantizationBound()
		if bound <= 0 {
			t.Fatalf("%v: bound %g, want > 0", tier, bound)
		}
		got, err := q.Query(queries, nil)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for i := 0; i < got.Rows; i++ {
			for j := 0; j < got.Cols; j++ {
				if d := math.Abs(got.At(i, j) - ref.At(i, j)); d > worst {
					worst = d
				}
			}
		}
		if worst > bound {
			t.Fatalf("%v: measured error %g exceeds reported bound %g", tier, worst, bound)
		}
		if worst == 0 && tier == dense.I8 {
			t.Fatalf("int8 quantization changed nothing; the bound check is vacuous")
		}
	}
}

// TestQuantizedShardPartialMatchesQuantizedIndex pins that a sharded
// quantized deployment answers tier-for-tier identically to the
// monolithic quantized index — the scatter-gather contract.
func TestQuantizedShardPartialMatchesQuantizedIndex(t *testing.T) {
	g, err := graph.ErdosRenyi(60, 300, 11)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Precompute(g, Options{Rank: 5})
	if err != nil {
		t.Fatal(err)
	}
	q, err := exact.Quantize(dense.I8)
	if err != nil {
		t.Fatal(err)
	}
	queries := []int{2, 31}
	want, err := q.Query(queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	mid := q.N() / 2
	var shards []*IndexShard
	for _, rng := range [][2]int{{0, mid}, {mid, q.N()}} {
		sh, err := q.Shard(rng[0], rng[1])
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sh)
	}
	// The router's scatter: U rows gathered from each query's owner.
	uq := dense.NewMat(len(queries), q.Rank())
	for j, qq := range queries {
		for _, sh := range shards {
			if sh.Owns(qq) {
				copy(uq.Row(j), sh.URow(qq))
			}
		}
	}
	for _, sh := range shards {
		part := dense.NewMat(sh.Rows(), len(queries))
		if err := sh.PartialInto(context.Background(), queries, uq, 0, part); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < part.Rows; i++ {
			for j := 0; j < part.Cols; j++ {
				if math.Float64bits(part.At(i, j)) != math.Float64bits(want.At(sh.Lo()+i, j)) {
					t.Fatalf("shard [%d,%d) entry (%d,%d) differs from monolithic quantized answer",
						sh.Lo(), sh.Hi(), i, j)
				}
			}
		}
	}
}
