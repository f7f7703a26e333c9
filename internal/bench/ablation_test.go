package bench

import (
	"errors"
	"testing"

	"csrplus/internal/core"
	"csrplus/internal/graph"
)

// ablationIndex builds a small index with rows left out of the factor, so
// the dense route spreads the stored rows over zeros.
func ablationIndex(t *testing.T) *core.Index {
	t.Helper()
	g, err := graph.RMAT(7, 300, graph.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Precompute(g, core.Options{Rank: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Stored() == ix.N() {
		t.Fatalf("all %d rows stored: the graph leaves none out", ix.N())
	}
	return ix
}

// TestQueryDenseMatchesQuery: the un-optimised dense query must return
// the same block as Theorem 3.5's route.
func TestQueryDenseMatchesQuery(t *testing.T) {
	ix := ablationIndex(t)
	queries := []int{1, 3, 5, ix.N() - 1}
	fast, err := ix.Query(queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := queryDense(ix, queries)
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Equal(slow, 1e-12) {
		t.Fatalf("dense query deviates by %g", fast.Sub(slow).MaxAbs())
	}
}

func TestQueryDenseValidation(t *testing.T) {
	ix := ablationIndex(t)
	if _, err := queryDense(ix, nil); !errors.Is(err, core.ErrParams) {
		t.Fatalf("err = %v", err)
	}
	if _, err := queryDense(ix, []int{ix.N()}); !errors.Is(err, core.ErrQuery) {
		t.Fatalf("err = %v", err)
	}
}
