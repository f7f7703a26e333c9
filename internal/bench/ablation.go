package bench

// ablation.go measures each of CSR+'s §3.2 optimisation stages in
// isolation — the design-choice evidence DESIGN.md §6 commits to:
//
//   - subspace solver: repeated squaring vs plain iteration vs an
//     explicitly materialised r² x r² Λ (Theorems 3.3/3.4's target);
//   - query route: Theorem 3.5's O(nr|Q|) slice vs materialising the full
//     n x n similarity matrix.
//
// The full "no optimisation at all" end of the spectrum is the CSR-NI
// baseline, measured by the main grid.

import (
	"fmt"
	"time"

	"csrplus/internal/core"
	"csrplus/internal/graph"
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

// AblationResult groups cells per dataset.
type AblationResult struct {
	Ranks    []int
	Datasets []string
	// Solver[dataset] holds solver-variant cells (3 per rank, grouped);
	// Query[dataset] holds the two query routes.
	Solver map[string][]AblationCell
	Query  map[string][]AblationCell
}

// AblationDatasets keeps the study on the two full-size graphs.
var AblationDatasets = []string{"FB", "P2P"}

// AblationRanks sweeps rank where the solver variants separate: the
// explicit-Λ route is O(r⁶), invisible at r=5 and dominant by r=40.
var AblationRanks = []int{5, 20, 40}

// RunAblation measures all variants.
func (e *Env) RunAblation(ranks []int) (*AblationResult, error) {
	if len(ranks) == 0 {
		ranks = AblationRanks
	}
	res := &AblationResult{
		Ranks:    ranks,
		Datasets: AblationDatasets,
		Solver:   make(map[string][]AblationCell),
		Query:    make(map[string][]AblationCell),
	}
	for _, ds := range res.Datasets {
		g, err := e.Dataset(ds)
		if err != nil {
			return nil, err
		}
		// Solver variants across ranks.
		for _, r := range ranks {
			rank := r
			if rank > g.N() {
				rank = g.N()
			}
			for _, solver := range []core.SubspaceSolver{
				core.SolverSquaring, core.SolverPlain, core.SolverExplicitLambda,
			} {
				cell, err := e.timeSolver(g, rank, solver)
				if err != nil {
					return nil, fmt.Errorf("bench: ablation %s/%v: %w", ds, solver, err)
				}
				res.Solver[ds] = append(res.Solver[ds], cell)
			}
		}
		// Query routes at the default rank.
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
		} else {
			start = time.Now()
			if _, err := ix.QueryDense(queries); err != nil {
				return nil, err
			}
			res.Query[ds] = append(res.Query[ds], AblationCell{
				Variant: "dense-materialise", Rank: DefaultRank, Time: time.Since(start)})
		}
	}
	return res, nil
}

func (e *Env) timeSolver(g *graph.Graph, rank int, solver core.SubspaceSolver) (AblationCell, error) {
	cell := AblationCell{Variant: "solver-" + solver.String(), Rank: rank}
	// The explicit-Λ variant's r² x r² Kronecker product plus inversion is
	// O(r⁶) time and 2·r⁴ floats of memory — guard like any other cell.
	if solver == core.SolverExplicitLambda {
		r := int64(rank)
		if e.MemBudget > 0 && 3*r*r*r*r*8 > e.MemBudget {
			cell.Skipped, cell.Reason = true, "MEM"
			return cell, nil
		}
		if e.FlopBudget > 0 && r*r*r*r*r*r > e.FlopBudget {
			cell.Skipped, cell.Reason = true, "TIME"
			return cell, nil
		}
	}
	start := time.Now()
	_, err := core.Precompute(g, core.Options{Rank: rank, Solver: solver, SVD: svd.Options{Seed: 42}})
	if err != nil {
		return cell, err
	}
	cell.Time = time.Since(start)
	return cell, nil
}

// Render prints the ablation tables.
func (r *AblationResult) Render(e *Env) {
	for _, ds := range r.Datasets {
		t := &Table{
			Title:  fmt.Sprintf("Ablation: subspace solver variants — %s (precompute time)", ds),
			Header: []string{"r", "squaring", "plain-iteration", "explicit-lambda"},
		}
		cells := r.Solver[ds]
		for i := 0; i < len(cells); i += 3 {
			row := []string{fmt.Sprint(cells[i].Rank)}
			for j := 0; j < 3; j++ {
				c := cells[i+j]
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
