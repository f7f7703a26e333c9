package core

import (
	"context"
	"errors"
	"testing"

	"csrplus/internal/graph"
)

func degradeTestIndex(t *testing.T) *Index {
	t.Helper()
	gr, err := graph.ErdosRenyi(120, 700, 17)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Precompute(gr, Options{Rank: 8})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// QueryRankInto must agree bitwise with QueryInto: same factors, same
// kernel order, just banded with cancellation checks. An exact index
// advertises a zero bound.
func TestQueryRankFullRankMatchesQueryInto(t *testing.T) {
	ix := degradeTestIndex(t)
	queries := []int{0, 3, ix.N() / 2, ix.N() - 1}
	want, err := ix.QueryInto(queries, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.QueryRankInto(context.Background(), queries, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsShape(want.Rows, want.Cols) {
		t.Fatalf("shape %dx%d", got.Rows, got.Cols)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("element %d = %v, want %v (bitwise identical)", i, v, want.Data[i])
		}
	}
	if b := ix.TruncationBound(0); b != 0 {
		t.Fatalf("exact index bound = %v, want 0", b)
	}
}

// A cancelled context must abort the pass with ctx.Err(), including
// mid-GEMM between row bands.
func TestQueryRankHonoursContext(t *testing.T) {
	ix := degradeTestIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.QueryRankInto(ctx, []int{1}, 0, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestQueryRankValidation(t *testing.T) {
	ix := degradeTestIndex(t)
	if _, err := ix.QueryRankInto(context.Background(), nil, 0, nil, nil); !errors.Is(err, ErrParams) {
		t.Fatalf("empty query set: %v", err)
	}
	if _, err := ix.QueryRankInto(context.Background(), []int{ix.N()}, 0, nil, nil); !errors.Is(err, ErrQuery) {
		t.Fatalf("out-of-range node: %v", err)
	}
}
