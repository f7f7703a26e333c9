// Command graphgen writes synthetic graphs as SNAP-style edge lists.
//
// Usage:
//
//	graphgen -dataset WT -dscale 200 -out wt.txt # a paper dataset stand-in (-dscale 0: its default)
//	graphgen -gen er -n 1000 -m 5000 -out g.txt  # raw generators
//	graphgen -gen ba -n 1000 -k 8 -out g.txt
//	graphgen -gen rmat -logn 14 -m 200000 -out g.txt
//	graphgen -gen ws -n 1000 -k 6 -beta 0.1 -out g.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"csrplus/internal/graph"
)

func main() {
	dataset := flag.String("dataset", "", "paper dataset stand-in: FB, P2P, YT, WT, TW, WB")
	scale := flag.Int64("dscale", 0, "dataset downscale factor (0 = default)")
	gen := flag.String("gen", "", "raw generator: er, ba, ws, rmat")
	n := flag.Int("n", 1000, "node count (er, ba, ws)")
	m := flag.Int64("m", 5000, "edge count (er, rmat)")
	k := flag.Int("k", 4, "attachment/neighbour constant (ba, ws)")
	beta := flag.Float64("beta", 0.1, "rewiring probability (ws)")
	logn := flag.Int("logn", 10, "log2 node count (rmat)")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "", "output path (required)")
	flag.Parse()

	if err := run(*dataset, *scale, *gen, *n, *m, *k, *beta, *logn, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(dataset string, scale int64, gen string, n int, m int64, k int, beta float64, logn int, seed int64, out string) error {
	if out == "" {
		return fmt.Errorf("-out is required")
	}
	g, err := build(dataset, scale, gen, n, m, k, beta, logn, seed)
	if err != nil {
		return err
	}
	if err := g.Save(out); err != nil {
		return err
	}
	st := g.ComputeStats()
	fmt.Printf("wrote %s: n=%d m=%d avg-degree=%.2f max-in=%d max-out=%d\n",
		out, st.N, st.M, st.AvgDegree, st.MaxInDeg, st.MaxOutDeg)
	return nil
}

func build(dataset string, scale int64, gen string, n int, m int64, k int, beta float64, logn int, seed int64) (*graph.Graph, error) {
	switch {
	case dataset != "" && gen != "":
		return nil, fmt.Errorf("use either -dataset or -gen, not both")
	case dataset != "":
		return graph.Source{Dataset: dataset, Scale: scale}.Load()
	case gen == "er":
		return graph.ErdosRenyi(n, m, seed)
	case gen == "ba":
		return graph.BarabasiAlbert(n, k, seed)
	case gen == "ws":
		return graph.WattsStrogatz(n, k, beta, seed)
	case gen == "rmat":
		return graph.RMAT(logn, m, graph.DefaultRMAT, seed)
	default:
		return nil, fmt.Errorf("one of -dataset or -gen {er, ba, ws, rmat} is required")
	}
}
