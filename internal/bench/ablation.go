package bench

// ablation.go measures the query route of CSR+'s §3.2 optimisations in
// isolation — the design-choice evidence DESIGN.md §6 commits to:
// Theorem 3.5's O(nr|Q|) slice vs materialising the full n x n similarity
// matrix. The subspace solve's variants were measured before they were
// deleted (EXPERIMENTS.md); core's tests still hold the solve to them.
//
// The full "no optimisation at all" end of the spectrum is the CSR-NI
// baseline, measured by the main grid.

import (
	"fmt"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/dense"
	"csrplus/internal/svd"
)

// AblationCell is one variant measurement.
type AblationCell struct {
	Variant string
	Rank    int
	Time    time.Duration
	Skipped bool
	Reason  string
}

// AblationResult groups cells per dataset: Query[dataset] holds the two
// query routes.
type AblationResult struct {
	Datasets []string
	Query    map[string][]AblationCell
}

// AblationDatasets keeps the study on the two full-size graphs.
var AblationDatasets = []string{"FB", "P2P"}

// RunAblation times both query routes at the default rank.
func (e *Env) RunAblation() (*AblationResult, error) {
	res := &AblationResult{
		Datasets: AblationDatasets,
		Query:    make(map[string][]AblationCell),
	}
	for _, ds := range res.Datasets {
		g, err := e.Dataset(ds)
		if err != nil {
			return nil, err
		}
		queries := e.SampleQueries(g, DefaultQuerySize)
		ix, err := core.Precompute(g, core.Options{Rank: DefaultRank, SVD: svd.Options{Seed: 42}})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := ix.Query(queries, nil); err != nil {
			return nil, err
		}
		res.Query[ds] = append(res.Query[ds], AblationCell{
			Variant: "thm3.5-slice", Rank: DefaultRank, Time: time.Since(start)})
		denseBytes := 2 * int64(g.N()) * int64(g.N()) * 8
		if e.MemBudget > 0 && denseBytes > e.MemBudget {
			res.Query[ds] = append(res.Query[ds], AblationCell{
				Variant: "dense-materialise", Rank: DefaultRank, Skipped: true, Reason: "MEM"})
			continue
		}
		start = time.Now()
		if _, err := queryDense(ix, queries); err != nil {
			return nil, err
		}
		res.Query[ds] = append(res.Query[ds], AblationCell{
			Variant: "dense-materialise", Rank: DefaultRank, Time: time.Since(start)})
	}
	return res, nil
}

// queryDense answers a multi-source query the un-optimised way, without
// Theorem 3.5: the full n x n similarity matrix S = I + c·F·Fᵀ is
// materialised and the queried columns sliced out. O(n²r) time and O(n²)
// memory — the cost the paper's fourth stage eliminates — so the memory
// guard must be consulted before calling it on anything large.
func queryDense(ix *core.Index, queries []int) (*dense.Mat, error) {
	n := ix.N()
	if len(queries) == 0 {
		return nil, fmt.Errorf("bench: empty query set: %w", core.ErrParams)
	}
	for _, q := range queries {
		if q < 0 || q >= n {
			return nil, fmt.Errorf("bench: node %d not in [0, %d): %w", q, n, core.ErrQuery)
		}
	}
	f := dense.NewMat(n, ix.Rank())
	for i := 0; i < n; i++ {
		copy(f.Row(i), ix.URow(i))
	}
	full := dense.MulT(f, f).Scale(ix.Damping()).AddEye(1)
	out := dense.NewMat(n, len(queries))
	for j, q := range queries {
		for i := 0; i < n; i++ {
			out.Set(i, j, full.At(i, q))
		}
	}
	return out, nil
}

// Render prints the ablation table.
func (r *AblationResult) Render(e *Env) {
	t := &Table{
		Title:  "Ablation: query route (Theorem 3.5 vs dense materialisation, |Q|=100)",
		Header: []string{"Dataset", "thm3.5-slice", "dense-materialise"},
	}
	for _, ds := range r.Datasets {
		row := []string{ds}
		for _, c := range r.Query[ds] {
			if c.Skipped {
				row = append(row, "✗"+c.Reason)
			} else {
				row = append(row, fmtDuration(c.Time))
			}
		}
		t.AddRow(row...)
	}
	t.Render(e.Out)
}
