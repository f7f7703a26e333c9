// Command graphgen writes synthetic graphs as SNAP-style edge lists.
//
// Usage:
//
//	graphgen -dataset WT -dscale 200 -out wt.txt # a paper dataset stand-in (-dscale 0: its default)
//	graphgen -gen er -n 1000 -m 5000 -out g.txt  # raw generators
//	graphgen -gen ba -n 1000 -k 8 -out g.txt
//	graphgen -gen rmat -logn 14 -m 200000 -out g.txt
//	graphgen -gen ws -n 1000 -k 6 -beta 0.1 -out g.txt
//
// A flag the picked generator does not read is refused, not ignored.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"csrplus/internal/flagmode"
	"csrplus/internal/graph"
)

// The modes: a paper dataset stand-in, or one of the raw generators.
const (
	modeDataset = iota
	modeER
	modeBA
	modeWS
	modeRMAT
)

// modes lists every flag each mode reads: a flag set on the command line
// that its mode does not list is refused instead of silently ignored.
var modes = []flagmode.Mode{
	modeDataset: {When: "with -dataset", Flags: "dataset dscale out"},
	modeER:      {When: "with -gen er", Flags: "gen n m seed out"},
	modeBA:      {When: "with -gen ba", Flags: "gen n k seed out"},
	modeWS:      {When: "with -gen ws", Flags: "gen n k beta seed out"},
	modeRMAT:    {When: "with -gen rmat", Flags: "gen logn m seed out"},
}

// gens maps each -gen value to its mode.
var gens = map[string]int{"er": modeER, "ba": modeBA, "ws": modeWS, "rmat": modeRMAT}

func main() {
	if err := run(os.Stdout, flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

// run registers every flag on fs, parses args, holds them to their mode's
// row of the table and writes the graph.
func run(stdout io.Writer, fs *flag.FlagSet, args []string) error {
	dataset := fs.String("dataset", "", "paper dataset stand-in: FB, P2P, YT, WT, TW, WB")
	scale := fs.Int64("dscale", 0, "dataset downscale factor (0 = default)")
	gen := fs.String("gen", "", "raw generator: er, ba, ws, rmat")
	n := fs.Int("n", 1000, "node count (er, ba, ws)")
	m := fs.Int64("m", 5000, "edge count (er, rmat)")
	k := fs.Int("k", 4, "attachment/neighbour constant (ba, ws)")
	beta := fs.Float64("beta", 0.1, "rewiring probability (ws)")
	logn := fs.Int("logn", 10, "log2 node count (rmat)")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A command line that picks no mode is refused by build.
	mode, picked := gens[*gen]
	if *dataset != "" {
		mode, picked = modeDataset, true
	}
	if picked {
		if err := flagmode.Check(fs, modes, mode); err != nil {
			return err
		}
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	g, err := build(*dataset, *scale, *gen, *n, *m, *k, *beta, *logn, *seed)
	if err != nil {
		return err
	}
	if err := g.Save(*out); err != nil {
		return err
	}
	st := g.ComputeStats()
	fmt.Fprintf(stdout, "wrote %s: n=%d m=%d avg-degree=%.2f max-in=%d max-out=%d\n",
		*out, st.N, st.M, st.AvgDegree, st.MaxInDeg, st.MaxOutDeg)
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
