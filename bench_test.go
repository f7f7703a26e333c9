package csrplus

// bench_test.go exposes every experiment of the paper's evaluation as a
// testing.B benchmark, one per table/figure, so `go test -bench=.`
// regenerates the whole suite on quick-scale stand-ins. The full-scale
// numbers (DESIGN.md §5 scales) come from `go run ./cmd/csrbench -exp all`
// and are recorded in EXPERIMENTS.md.

import (
	"testing"

	"csrplus/internal/baseline"
	"csrplus/internal/bench"
	"csrplus/internal/core"
	"csrplus/internal/graph"
	"csrplus/internal/svd"
)

func quickEnv(b *testing.B) *bench.Env {
	b.Helper()
	return bench.NewEnv(nil).Quick()
}

func reportCells(b *testing.B, skipped *int, ran *int) {
	b.Helper()
	b.ReportMetric(float64(*ran), "cells-run")
	b.ReportMetric(float64(*skipped), "cells-guarded")
}

// BenchmarkTable1 renders the complexity table (sanity baseline; no
// numeric content).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.RenderTable1(nil)
	}
}

// BenchmarkFig2 runs the Figure 2/6 grid: total time of the four
// algorithms across the six datasets, with guard markers where the paper
// reports crashes.
func BenchmarkFig2(b *testing.B) {
	env := quickEnv(b)
	skipped, ran := 0, 0
	for i := 0; i < b.N; i++ {
		grid, err := env.RunGrid()
		if err != nil {
			b.Fatal(err)
		}
		skipped, ran = 0, 0
		for _, ds := range grid.Datasets {
			for _, algo := range grid.Algos {
				if grid.Cells[ds][algo].Skipped {
					skipped++
				} else {
					ran++
				}
			}
		}
	}
	reportCells(b, &skipped, &ran)
}

// BenchmarkFig3 measures CSR+'s phase split across |Q| (Figure 3); the
// same cells carry Figure 7's phase memory.
func BenchmarkFig3(b *testing.B) {
	env := quickEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.RunPhaseSweep([]int{10, 30, 50, 70}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4 sweeps the rank r (Figure 4 time view, Figure 8 memory
// view).
func BenchmarkFig4(b *testing.B) {
	env := quickEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.RunRankSweep([]int{3, 5, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 sweeps the query-set size |Q| (Figure 5 time view,
// Figure 9 memory view).
func BenchmarkFig5(b *testing.B) {
	env := quickEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.RunQuerySweep([]int{10, 30, 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 reports the grid's peak analytic memory for CSR+ on the
// largest stand-in (the Figure 6 headline: linear growth).
func BenchmarkFig6(b *testing.B) {
	env := quickEnv(b)
	var peak int64
	for i := 0; i < b.N; i++ {
		grid, err := env.RunGrid()
		if err != nil {
			b.Fatal(err)
		}
		peak = grid.Cells["WB"]["CSR+"].PeakBytes
	}
	b.ReportMetric(float64(peak), "csrplus-peak-bytes")
}

// BenchmarkFig7 isolates the query-phase memory growth of CSR+ (Figure 7).
func BenchmarkFig7(b *testing.B) {
	env := quickEnv(b)
	var q10, q70 int64
	for i := 0; i < b.N; i++ {
		s, err := env.RunPhaseSweep([]int{10, 70})
		if err != nil {
			b.Fatal(err)
		}
		q10 = s.QueryCells["FB"][0].QueryBytes
		q70 = s.QueryCells["FB"][1].QueryBytes
	}
	b.ReportMetric(float64(q70)/float64(q10), "query-bytes-growth")
}

// BenchmarkFig8 reports CSR+ memory growth across ranks (Figure 8's
// "gently increases").
func BenchmarkFig8(b *testing.B) {
	env := quickEnv(b)
	var low, high int64
	for i := 0; i < b.N; i++ {
		s, err := env.RunRankSweep([]int{3, 9})
		if err != nil {
			b.Fatal(err)
		}
		low = s.Cells["FB"]["CSR+"][0].PeakBytes
		high = s.Cells["FB"]["CSR+"][1].PeakBytes
	}
	b.ReportMetric(float64(high)/float64(low), "mem-growth-3x-rank")
}

// BenchmarkFig9 reports CSR+ vs CSR-RLS memory sensitivity to |Q|
// (Figure 9).
func BenchmarkFig9(b *testing.B) {
	env := quickEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.RunQuerySweep([]int{10, 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 measures the AvgDiff accuracy experiment.
func BenchmarkTable3(b *testing.B) {
	env := quickEnv(b)
	var avg float64
	for i := 0; i < b.N; i++ {
		res, err := env.RunTable3([]int{10, 20})
		if err != nil {
			b.Fatal(err)
		}
		avg = res.Cells["FB"][1].AvgDiff
	}
	b.ReportMetric(avg, "avgdiff-r20")
}

// --- Micro-benchmarks for the kernels the experiments stand on. ---

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := graph.RMAT(12, 40000, graph.DefaultRMAT, 5)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkCSRPlusPrecompute isolates Algorithm 1's phase I.
func BenchmarkCSRPlusPrecompute(b *testing.B) {
	g := benchGraph(b)
	cfg := baseline.Config{Rank: 5, SVD: svd.Options{Seed: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := baseline.NewCSRPlus(cfg)
		if err := r.Precompute(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrecomputeWT is phase I on the serving benchmark's fixture
// (the WT stand-in, n = 131072, at csrload's r = 16, c = 0.6): the cost of
// a cold csrserver boot and of every drift-budget rebuild.
func BenchmarkPrecomputeWT(b *testing.B) {
	ds, err := graph.DatasetByKey("WT")
	if err != nil {
		b.Fatal(err)
	}
	g, err := ds.Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Precompute(g, core.Options{Rank: 16, Damping: 0.6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSRPlusQuery isolates Algorithm 1's phase II at |Q| = 100.
func BenchmarkCSRPlusQuery(b *testing.B) {
	g := benchGraph(b)
	r := baseline.NewCSRPlus(baseline.Config{Rank: 5, SVD: svd.Options{Seed: 1}})
	if err := r.Precompute(g); err != nil {
		b.Fatal(err)
	}
	queries := make([]int, 100)
	for i := range queries {
		queries[i] = i * 17 % g.N()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Query(queries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpMV measures the sparse kernel everything reduces to.
func BenchmarkSpMV(b *testing.B) {
	g := benchGraph(b)
	q, err := g.Transition()
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, g.N())
	for i := range x {
		x[i] = 1 / float64(g.N())
	}
	y := make([]float64, g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y = q.MulVec(x, y)
	}
	_ = y
}

// BenchmarkTruncatedSVD measures the rank-5 decomposition.
func BenchmarkTruncatedSVD(b *testing.B) {
	g := benchGraph(b)
	q, err := g.Transition()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svd.Truncated(q, 5, svd.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation runs the design-choice ablation study (solver
// variants, query routes).
func BenchmarkAblation(b *testing.B) {
	env := quickEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.RunAblation([]int{3, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankEval runs the ranking-quality extension experiment.
func BenchmarkRankEval(b *testing.B) {
	env := quickEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.RunRankEval([]int{5, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSweep runs the damping-factor sensitivity extension.
func BenchmarkCSweep(b *testing.B) {
	env := quickEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.RunCSweep([]float64{0.4, 0.8}); err != nil {
			b.Fatal(err)
		}
	}
}
