package baseline

import (
	"fmt"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/graph"
)

// CSRPlus adapts the paper's algorithm (internal/core) to the Runner
// interface so the harness can drive it uniformly alongside the baselines.
type CSRPlus struct {
	cfg Config
	ix  *core.Index
}

// NewCSRPlus returns an unprecomputed CSR+ runner.
func NewCSRPlus(cfg Config) *CSRPlus { return &CSRPlus{cfg: cfg.WithDefaults()} }

// CSRPlusFromIndex returns a query-ready runner around a previously
// persisted index (core.LoadIndex); Precompute becomes a no-op.
func CSRPlusFromIndex(ix *core.Index, cfg Config) *CSRPlus {
	return &CSRPlus{cfg: cfg.WithDefaults(), ix: ix}
}

// Name implements Runner.
func (a *CSRPlus) Name() string { return "CSR+" }

// EstimateBytes implements Runner, following Theorem 3.7's O(rn) bound:
// the transition matrix plus a handful of n x r factors and the query
// block.
func (a *CSRPlus) EstimateBytes(n int, m int64, q int) int64 {
	r := int64(a.cfg.Rank)
	n64 := int64(n)
	// Q + SVD factors (U, V + sketch scratch ≈ 4 n·r) + Z + result.
	return csrBytes(n, m) + 6*n64*r*8 + n64*int64(q)*8
}

// EstimateFlops implements Runner: the SVD's sparse passes dominate
// precompute; queries add n·r per query (Theorem 3.7).
func (a *CSRPlus) EstimateFlops(n int, m int64, q int) int64 {
	r := int64(a.cfg.Rank)
	k := r + 8 // sketch width with default oversampling
	n64 := int64(n)
	svdCost := 6*m*k + 4*n64*k*k // power-iteration passes + QR/Gram finish
	subspace := 8 * r * r * r    // repeated squaring in the r-space
	return svdCost + subspace + n64*r*r + n64*r*int64(q)
}

// Precompute implements Runner (Algorithm 1, phase I). It is a no-op when
// the runner was constructed from a persisted index.
func (a *CSRPlus) Precompute(g *graph.Graph) error {
	if a.ix != nil {
		return nil
	}
	ix, err := core.Precompute(g, core.Options{
		Damping: a.cfg.Damping,
		Rank:    a.cfg.Rank,
		Eps:     a.cfg.Eps,
		SVD:     a.cfg.SVD,
		Tracker: a.cfg.Tracker,
	})
	if err != nil {
		return fmt.Errorf("baseline: CSR+: %w", err)
	}
	a.ix = ix
	return nil
}

// Index exposes the underlying core index (nil before Precompute).
func (a *CSRPlus) Index() *core.Index { return a.ix }

// Query implements Runner (Algorithm 1, phase II).
func (a *CSRPlus) Query(queries []int) (*dense.Mat, error) {
	if a.ix == nil {
		return nil, ErrNotPrecomputed
	}
	if err := validateQueries(queries, a.ix.N()); err != nil {
		return nil, err
	}
	s, err := a.ix.QueryInto(queries, nil, a.cfg.Tracker)
	if err != nil {
		return nil, fmt.Errorf("baseline: CSR+: %w", err)
	}
	return s, nil
}
