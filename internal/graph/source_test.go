package graph

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestSource holds one command line per row to the graph it names: each
// refusal, and the node count resolved without reading the graph from
// -dataset at its default scale, from -dscale, and from -graph's -n.
func TestSource(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // the refusal; "" when the line names a graph
		n    int
	}{
		{args: "-dataset FB -graph g.txt -n 6", want: "use either -dataset or -graph, not both"},
		{args: "-dataset FB -n 5", want: "-n requires -graph"},
		{args: "-n 5", want: "-n requires -graph"},
		{args: "-graph g.txt -n 6 -dscale 4", want: "-dscale requires -dataset"},
		{args: "-dscale 4", want: "-dscale requires -dataset"},
		{args: "-graph g.txt", want: "-graph requires -n"},
		{args: "-graph g.txt -n -1", want: "-graph requires -n"},
		{args: "-dataset NOPE", want: `unknown dataset "NOPE"`},
		{args: "", n: 0},
		{args: "-dataset FB", n: 4039},
		{args: "-dataset WT", n: 131072},
		{args: "-dataset WT -dscale 1200", n: 2048},
		{args: "-dataset P2P -dscale 64", n: 354},
		{args: "-graph g.txt -n 6", n: 6},
	} {
		var s Source
		fs := flag.NewFlagSet("source", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		s.Flags(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		err := s.Check()
		var n int
		if err == nil {
			n, err = s.Nodes()
		}
		switch {
		case tc.want != "":
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%q: err = %v, want %q", tc.args, err, tc.want)
			}
		case err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case n != tc.n:
			t.Errorf("%q: n = %d, want %d", tc.args, n, tc.n)
		}
	}
}

// TestSourceLoad: Load generates the stand-in Nodes counted, reads the
// file it names, and refuses a Source that names no graph.
func TestSourceLoad(t *testing.T) {
	s := Source{Dataset: "P2P", Scale: 64}
	g, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Nodes(); g.N() != n {
		t.Fatalf("generated n = %d, Nodes = %d", g.N(), n)
	}
	if _, err := (Source{Path: t.TempDir() + "/missing.txt", N: 3}).Load(); err == nil {
		t.Fatal("missing edge-list file loaded")
	}
	if _, err := (Source{}).Load(); err == nil || !strings.Contains(err.Error(), "one of -dataset or -graph is required") {
		t.Fatalf("no graph named: err = %v", err)
	}
}
