// Command csrbench regenerates the paper's evaluation (§4): every figure
// and table, on synthetic stand-ins for its six SNAP datasets.
//
// Usage:
//
//	csrbench -exp all                 # the whole evaluation suite
//	csrbench -exp fig2                # one experiment: fig2..fig9, table1, table3
//	csrbench -exp fig4 -quick         # heavily downscaled, sub-second cells
//	csrbench -exp fig2 -scale 4       # extra downscale factor on every dataset
//	csrbench -membudget 4 -flopbudget 1e10
//
// Cells whose analytic memory estimate exceeds -membudget GiB print ✗MEM —
// the honest equivalent of the paper's "crashed due to memory" entries —
// and cells whose flop estimate exceeds -flopbudget print ✗TIME.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"csrplus/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig2..fig9, table1, table3, datasets, rankeval, ablation, csweep")
	quick := flag.Bool("quick", false, "heavily downscaled datasets (sub-second cells)")
	scale := flag.Int64("scale", 1, "extra downscale factor applied to every dataset")
	memGiB := flag.Float64("membudget", 10, "analytic memory budget in GiB (0 disables the guard)")
	flops := flag.Float64("flopbudget", 4e10, "flop budget per cell (0 disables the guard)")
	verbose := flag.Bool("v", false, "print a heartbeat line per executed cell to stderr")
	jsonOut := flag.String("jsonout", "", "also write raw results as JSON to this path (for plotting)")
	flag.Parse()

	env := bench.NewEnv(os.Stdout)
	if *quick {
		env.Quick()
	}
	if *scale > 1 {
		env.ExtraScale *= *scale
	}
	env.MemBudget = int64(*memGiB * float64(1<<30))
	env.FlopBudget = int64(*flops)
	if *verbose {
		env.Progress = os.Stderr
	}

	results := make(map[string]interface{})
	if err := run(env, *exp, results); err != nil {
		fmt.Fprintln(os.Stderr, "csrbench:", err)
		os.Exit(1)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, results); err != nil {
			fmt.Fprintln(os.Stderr, "csrbench:", err)
			os.Exit(1)
		}
	}
}

// writeJSON dumps the collected experiment structs for external plotting.
func writeJSON(path string, results map[string]interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return nil
}

func run(env *bench.Env, exp string, results map[string]interface{}) error {
	switch exp {
	case "table1":
		bench.RenderTable1(env.Out)
	case "fig2", "fig6":
		grid, err := env.RunGrid()
		if err != nil {
			return err
		}
		results["grid"] = grid
		if exp == "fig2" {
			grid.RenderFig2(env)
		} else {
			grid.RenderFig6(env)
		}
	case "fig3", "fig7":
		s, err := env.RunPhaseSweep(nil)
		if err != nil {
			return err
		}
		results["phase"] = s
		if exp == "fig3" {
			s.RenderFig3(env)
		} else {
			s.RenderFig7(env)
		}
	case "fig4", "fig8":
		s, err := env.RunRankSweep(nil)
		if err != nil {
			return err
		}
		results["rank-sweep"] = s
		if exp == "fig4" {
			s.RenderFig4(env)
		} else {
			s.RenderFig8(env)
		}
	case "fig5", "fig9":
		s, err := env.RunQuerySweep(nil)
		if err != nil {
			return err
		}
		results["query-sweep"] = s
		if exp == "fig5" {
			s.RenderFig5(env)
		} else {
			s.RenderFig9(env)
		}
	case "table3":
		res, err := env.RunTable3(nil)
		if err != nil {
			return err
		}
		results["table3"] = res
		res.Render(env)
	case "datasets":
		return env.RenderDatasets()
	case "rankeval":
		res, err := env.RunRankEval(nil)
		if err != nil {
			return err
		}
		results["rankeval"] = res
		res.Render(env)
	case "csweep":
		res, err := env.RunCSweep(nil)
		if err != nil {
			return err
		}
		results["csweep"] = res
		res.Render(env)
	case "ablation":
		res, err := env.RunAblation()
		if err != nil {
			return err
		}
		results["ablation"] = res
		res.Render(env)
	case "all":
		bench.RenderTable1(env.Out)
		if err := env.RenderDatasets(); err != nil {
			return err
		}
		grid, err := env.RunGrid()
		if err != nil {
			return err
		}
		results["grid"] = grid
		grid.RenderFig2(env)
		grid.RenderFig6(env)
		phase, err := env.RunPhaseSweep(nil)
		if err != nil {
			return err
		}
		results["phase"] = phase
		phase.RenderFig3(env)
		phase.RenderFig7(env)
		ranks, err := env.RunRankSweep(nil)
		if err != nil {
			return err
		}
		results["rank-sweep"] = ranks
		ranks.RenderFig4(env)
		ranks.RenderFig8(env)
		qs, err := env.RunQuerySweep(nil)
		if err != nil {
			return err
		}
		results["query-sweep"] = qs
		qs.RenderFig5(env)
		qs.RenderFig9(env)
		t3, err := env.RunTable3(nil)
		if err != nil {
			return err
		}
		results["table3"] = t3
		t3.Render(env)
		re, err := env.RunRankEval(nil)
		if err != nil {
			return err
		}
		results["rankeval"] = re
		re.Render(env)
		ab, err := env.RunAblation()
		if err != nil {
			return err
		}
		results["ablation"] = ab
		ab.Render(env)
		cw, err := env.RunCSweep(nil)
		if err != nil {
			return err
		}
		results["csweep"] = cw
		cw.Render(env)
	default:
		return fmt.Errorf("unknown experiment %q (want all, fig2..fig9, table1, table3, datasets, rankeval, ablation, csweep)", exp)
	}
	return nil
}
