package main

import (
	"errors"
	"flag"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"csrplus/internal/flagmode"
)

func runArgs(out io.Writer, args ...string) error {
	fs := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return run(out, fs, args)
}

func TestBuildGenerators(t *testing.T) {
	cases := []struct {
		name string
		gen  string
	}{
		{"er", "er"}, {"ba", "ba"}, {"ws", "ws"}, {"rmat", "rmat"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := build("", 0, tc.gen, 100, 400, 4, 0.1, 7, 1)
			if err != nil {
				t.Fatal(err)
			}
			if g.N() < 100 || g.M() == 0 {
				t.Fatalf("n=%d m=%d", g.N(), g.M())
			}
		})
	}
}

func TestBuildDataset(t *testing.T) {
	g, err := build("P2P", 64, "", 0, 0, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 22687/64 {
		t.Fatalf("n=%d", g.N())
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := build("", 0, "", 0, 0, 0, 0, 0, 0); err == nil {
		t.Fatal("no source accepted")
	}
	if _, err := build("FB", 0, "er", 10, 10, 0, 0, 0, 0); err == nil {
		t.Fatal("both sources accepted")
	}
	if _, err := build("NOPE", 0, "", 0, 0, 0, 0, 0, 0); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunWritesFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.txt")
	if err := runArgs(io.Discard, "-gen", "er", "-n", "50", "-m", "200", "-seed", "3", "-out", out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 200 {
		t.Fatalf("wrote %d edges, want 200", lines)
	}
}

func TestRunRequiresOut(t *testing.T) {
	if err := runArgs(io.Discard, "-gen", "er", "-n", "50", "-m", "200", "-seed", "3"); err == nil {
		t.Fatal("missing -out accepted")
	}
}

// TestRunRefusesStrayFlags: a flag the picked generator does not read is
// refused, naming the modes that read it, and nothing is written; each mode
// accepts its whole row; and the table and the flag set describe each other
// exactly.
func TestRunRefusesStrayFlags(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-dataset", "FB", "-n", "5"}, "-n is not supported with -dataset"},
		{[]string{"-gen", "er", "-n", "50", "-m", "100", "-dscale", "4"}, "-dscale is not supported with -gen er"},
		{[]string{"-gen", "er", "-k", "3"}, "-k is not supported with -gen er"},
		{[]string{"-gen", "ba", "-m", "100"}, "-m is not supported with -gen ba"},
		{[]string{"-gen", "ws", "-logn", "5"}, "-logn is not supported with -gen ws"},
		{[]string{"-gen", "rmat", "-n", "50"}, "-n is not supported with -gen rmat"},
		{[]string{"-gen", "rmat", "-beta", "0.2"}, "-beta is not supported with -gen rmat"},
		{[]string{"-dataset", "FB", "-gen", "er"}, "-gen is not supported with -dataset"},
	} {
		out := filepath.Join(dir, "g.txt")
		err := runArgs(io.Discard, append(tc.args, "-out", out)...)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.flag)
		}
		if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%v: wrote %s (stat err %v)", tc.args, out, err)
		}
	}
	for _, args := range [][]string{
		{"-dataset", "P2P", "-dscale", "64"},
		{"-gen", "er", "-n", "50", "-m", "100", "-seed", "2"},
		{"-gen", "ba", "-n", "50", "-k", "3", "-seed", "2"},
		{"-gen", "ws", "-n", "50", "-k", "4", "-beta", "0.2", "-seed", "2"},
		{"-gen", "rmat", "-logn", "6", "-m", "100", "-seed", "2"},
	} {
		if err := runArgs(io.Discard, append(args, "-out", filepath.Join(dir, "ok.txt"))...); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}

	set := flag.NewFlagSet("graphgen", flag.ContinueOnError)
	if err := run(io.Discard, set, nil); err == nil {
		t.Fatal("an empty command line wrote a graph")
	}
	set.VisitAll(func(f *flag.Flag) {
		if !slices.ContainsFunc(modes, func(m flagmode.Mode) bool { return m.Reads(f.Name) }) {
			t.Errorf("flag -%s is read by no mode", f.Name)
		}
	})
	for _, m := range modes {
		for _, name := range strings.Fields(m.Flags) {
			if set.Lookup(name) == nil {
				t.Errorf("mode table names -%s, which is not a flag", name)
			}
		}
	}
}
