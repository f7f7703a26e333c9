// Command csrquery answers CoSimRank similarity queries from the terminal.
//
// Usage:
//
//	csrquery -dataset FB -q 12,99 -k 10            # top-10 per aggregate
//	csrquery -graph edges.txt -n 5000 -q 7 -k 5    # from an edge-list file
//	csrquery -dataset WT -dscale 200 -q 7          # -dscale goes with -dataset, -n with -graph
//	csrquery -dataset P2P -algo CSR-IT -q 3 -json  # pick the algorithm
//	csrquery -dataset FB -q 12 -saveindex snaps    # publish the index as snaps/index-00000001.csrx
//	csrquery -index snaps/index-00000001.csrx -q 99  # answer from the file alone
//
// With one query node the output is that node's top-k most similar nodes;
// with several, the top-k by aggregate similarity to the whole set (the
// paper's Wikipedians-categorisation pattern).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"csrplus"
	"csrplus/internal/core"
	"csrplus/internal/flagmode"
	"csrplus/internal/graph"
)

// The modes, by where the engine comes from: precomputed over the graph,
// or loaded from a published CSR+ index alone, which carries its n and m.
const (
	modeBuild = iota
	modeIndex
)

// modes lists every flag each mode reads: a flag set on the command line
// that its mode does not list is refused instead of silently ignored.
var modes = []flagmode.Mode{
	modeBuild: {When: "without -index", Flags: "dataset dscale graph n q k json saveindex algo r c"},
	modeIndex: {When: "with -index", Flags: "index q k json"},
}

func main() {
	if err := run(os.Stdout, flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "csrquery:", err)
		os.Exit(1)
	}
}

// published is the snapshot -saveindex wrote.
type published struct {
	Gen  uint64 `json:"generation"`
	Path string `json:"path"`
}

// run registers every flag on fs, parses args, holds them to their mode's
// row of the table and answers the query.
func run(out io.Writer, fs *flag.FlagSet, args []string) error {
	var src graph.Source
	src.Flags(fs)
	algo := fs.String("algo", csrplus.AlgoCSRPlus, "algorithm: "+strings.Join(csrplus.Algorithms(), ", "))
	rank := fs.Int("r", core.DefaultRank, "SVD rank / iteration count")
	damping := fs.Float64("c", core.DefaultDamping, "damping factor in (0, 1)")
	queryList := fs.String("q", "", "comma-separated query node ids (required)")
	k := fs.Int("k", 10, "result count")
	asJSON := fs.Bool("json", false, "emit JSON instead of a table")
	indexPath := fs.String("index", "", "answer from a published CSR+ index file instead of a graph")
	saveIndex := fs.String("saveindex", "", "publish the CSR+ index as the next generation of this snapshot directory (created if missing); -index loads the published file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode := modeBuild
	if *indexPath != "" {
		mode = modeIndex
	}
	if err := flagmode.Check(fs, modes, mode); err != nil {
		return err
	}

	queries, err := parseQueries(*queryList)
	if err != nil {
		return err
	}
	var eng *csrplus.Engine
	if mode == modeIndex {
		eng, err = csrplus.LoadEngine(nil, *indexPath)
	} else {
		var g *graph.Graph
		if g, err = src.Load(); err == nil {
			eng, err = csrplus.NewEngine(csrplus.FromCoreGraph(g), csrplus.Options{
				Algorithm: *algo,
				Rank:      *rank,
				Damping:   *damping,
			})
		}
	}
	if err != nil {
		return err
	}
	defer eng.Close()
	var pub *published
	if *saveIndex != "" {
		gen, path, err := eng.SaveSnapshot(*saveIndex)
		if err != nil {
			return err
		}
		pub = &published{gen, path}
	}
	var matches []csrplus.Match
	if len(queries) == 1 {
		matches, err = eng.TopK(queries[0], *k)
	} else {
		matches, err = eng.TopKMulti(queries, *k)
	}
	if err != nil {
		return err
	}
	st := eng.Stats()
	if *asJSON {
		return json.NewEncoder(out).Encode(struct {
			Algorithm string          `json:"algorithm"`
			N         int             `json:"n"`
			M         int64           `json:"m"`
			Queries   []int           `json:"queries"`
			Matches   []csrplus.Match `json:"matches"`
			Published *published      `json:"published,omitempty"`
		}{st.Algorithm, st.N, st.M, queries, matches, pub})
	}
	// A loaded index ran no precompute here: say where it came from instead
	// of timing a build that did not happen.
	origin := fmt.Sprintf("precompute: %v", st.PrecomputeTime.Round(1000))
	if mode == modeIndex {
		origin = "index: loaded from " + *indexPath
	}
	fmt.Fprintf(out, "graph: n=%d m=%d | algorithm: %s | %s\n", st.N, st.M, st.Algorithm, origin)
	if pub != nil {
		fmt.Fprintf(out, "published: %s (generation %d)\n", pub.Path, pub.Gen)
	}
	fmt.Fprintf(out, "top-%d nodes similar to %v:\n", *k, queries)
	for i, m := range matches {
		fmt.Fprintf(out, "%3d. node %-8d score %.6f\n", i+1, m.Node, m.Score)
	}
	return nil
}

func parseQueries(list string) ([]int, error) {
	if list == "" {
		return nil, fmt.Errorf("-q is required (comma-separated node ids)")
	}
	parts := strings.Split(list, ",")
	queries := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad query id %q: %w", p, err)
		}
		queries = append(queries, id)
	}
	return queries, nil
}
