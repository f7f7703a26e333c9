package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"csrplus/internal/flagmode"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	// The paper's 6-node example graph.
	edges := "3 0\n0 1\n2 1\n4 1\n3 2\n0 3\n4 3\n5 3\n2 4\n5 4\n3 5\n"
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(edges), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseQueries(t *testing.T) {
	qs, err := parseQueries("1, 2,3")
	if err != nil || len(qs) != 3 || qs[0] != 1 || qs[2] != 3 {
		t.Fatalf("qs=%v err=%v", qs, err)
	}
	if _, err := parseQueries(""); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := parseQueries("1,x"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadGraphValidation(t *testing.T) {
	if _, err := loadGraph("", 0, "", 0); err == nil {
		t.Fatal("no source accepted")
	}
	if _, err := loadGraph("FB", 0, "x", 3); err == nil {
		t.Fatal("both sources accepted")
	}
	if _, err := loadGraph("", 0, "x.txt", 0); err == nil {
		t.Fatal("graph without -n accepted")
	}
}

// runArgs runs one csrquery command line, printing into out.
func runArgs(out io.Writer, args ...string) error {
	fs := flag.NewFlagSet("csrquery", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return run(out, fs, args)
}

func TestRunTableOutput(t *testing.T) {
	path := writeTestGraph(t)
	var buf bytes.Buffer
	if err := runArgs(&buf, "-graph", path, "-n", "6", "-r", "3", "-q", "1", "-k", "3"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "n=6 m=11") {
		t.Fatalf("missing graph line:\n%s", out)
	}
	if !strings.Contains(out, "node 3") {
		t.Fatalf("top match (node 3, paper example) missing:\n%s", out)
	}
}

// jsonBody is csrquery's -json output.
type jsonBody struct {
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	M         int64  `json:"m"`
	Queries   []int  `json:"queries"`
	Matches   []struct {
		Node  int     `json:"node"`
		Score float64 `json:"score"`
	} `json:"matches"`
	Published *struct {
		Gen  uint64 `json:"generation"`
		Path string `json:"path"`
	} `json:"published"`
}

// runJSON runs a -json command line and decodes its output.
func runJSON(t *testing.T, args ...string) jsonBody {
	t.Helper()
	var buf bytes.Buffer
	if err := runArgs(&buf, append(args, "-json")...); err != nil {
		t.Fatal(err)
	}
	var body jsonBody
	if err := json.Unmarshal(buf.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	return body
}

func TestRunJSONOutput(t *testing.T) {
	body := runJSON(t, "-graph", writeTestGraph(t), "-n", "6", "-r", "3", "-q", "1,3", "-k", "2")
	if body.Algorithm != "CSR+" || body.N != 6 || len(body.Matches) != 2 || body.Published != nil {
		t.Fatalf("body = %+v", body)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestGraph(t)
	var buf bytes.Buffer
	if err := runArgs(&buf, "-graph", path, "-n", "6", "-algo", "bogus", "-q", "1"); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
	if err := runArgs(&buf, "-graph", path, "-n", "6", "-q", "99"); err == nil {
		t.Fatal("out-of-range query accepted")
	}
	if err := runArgs(&buf, "-graph", path, "-n", "6"); err == nil {
		t.Fatal("missing queries accepted")
	}
}

func TestRunDataset(t *testing.T) {
	var buf bytes.Buffer
	if err := runArgs(&buf, "-dataset", "P2P", "-dscale", "64", "-r", "3", "-q", "0,1", "-k", "2"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "top-2") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

// TestRunIndexRoundTrip: -saveindex DIR publishes the precomputed index as
// DIR's generation 1, and -index on that file, with no graph flag, answers
// exactly what the fresh engine answered and reports the same n and m; a
// second -saveindex DIR is generation 2.
func TestRunIndexRoundTrip(t *testing.T) {
	query := []string{"-q", "12,99", "-k", "5"}
	dir := filepath.Join(t.TempDir(), "snaps")
	fresh := runJSON(t, append([]string{"-dataset", "FB", "-saveindex", dir}, query...)...)
	if p := fresh.Published; p == nil || p.Gen != 1 || p.Path != filepath.Join(dir, "index-00000001.csrx") {
		t.Fatalf("published %+v, want generation 1 in %s", p, dir)
	}
	loaded := runJSON(t, append([]string{"-index", fresh.Published.Path}, query...)...)
	fresh.Published = nil
	if !reflect.DeepEqual(loaded, fresh) || fresh.N != 4039 || fresh.M == 0 || len(fresh.Matches) != 5 {
		t.Fatalf("-index answers %+v, the fresh engine answered %+v", loaded, fresh)
	}

	var buf bytes.Buffer
	if err := runArgs(&buf, "-graph", writeTestGraph(t), "-n", "6", "-q", "1", "-saveindex", dir); err != nil {
		t.Fatal(err)
	}
	if want := "published: " + filepath.Join(dir, "index-00000002.csrx") + " (generation 2)"; !strings.Contains(buf.String(), want) {
		t.Fatalf("table output lacks %q:\n%s", want, buf.String())
	}
}

// TestRunIndexTableSaysLoaded: the table header of an -index run says the
// index was loaded from the file, not that a precompute took 0s; a run that
// builds still times its precompute.
func TestRunIndexTableSaysLoaded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	var built bytes.Buffer
	if err := runArgs(&built, "-graph", writeTestGraph(t), "-n", "6", "-q", "1", "-saveindex", dir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(built.String(), "| precompute: ") {
		t.Fatalf("a build's table does not time its precompute:\n%s", built.String())
	}
	path := filepath.Join(dir, "index-00000001.csrx")
	var loaded bytes.Buffer
	if err := runArgs(&loaded, "-index", path, "-q", "1"); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(loaded.String(), "\n")
	if want := "| index: loaded from " + path; !strings.HasSuffix(header, want) || strings.Contains(header, "precompute") {
		t.Fatalf("-index table header %q, want it to end %q and time no precompute", header, want)
	}
}

// TestModeTable: -index refuses the flags only a precompute reads — the
// graph's, the algorithm's and -saveindex — naming them, instead of
// silently serving the loaded index; each mode accepts its whole row; and
// the table and the flag set describe each other exactly.
func TestModeTable(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-index", "F", "-algo", "CSR-IT"}, "-algo"},
		{[]string{"-index", "F", "-r", "9"}, "-r"},
		{[]string{"-index", "F", "-c", "0.3"}, "-c"},
		{[]string{"-index", "F", "-dataset", "FB"}, "-dataset"},
		{[]string{"-index", "F", "-dscale", "2"}, "-dscale"},
		{[]string{"-index", "F", "-graph", "g"}, "-graph"},
		{[]string{"-index", "F", "-n", "6"}, "-n"},
		{[]string{"-index", "F", "-saveindex", "d"}, "-saveindex"},
		{[]string{"-dataset", "FB", "-q", "1", "-index", "F", "-algo", "CSR-IT", "-r", "9", "-c", "0.3"}, "-algo"},
	} {
		err := runArgs(io.Discard, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" is not supported with -index") || !strings.Contains(err.Error(), "it applies without -index") {
			t.Errorf("%v: err = %v, want a refusal naming %s and the mode it applies to", tc.args, err, tc.flag)
		}
	}
	// Each row whole gets past the table, to the input the flags name.
	for want, args := range map[string][]string{
		"either -dataset or -graph": {"-dataset", "FB", "-dscale", "2", "-graph", "g", "-n", "6", "-q", "1", "-k", "3", "-json", "-saveindex", "d", "-algo", "CSR-IT", "-r", "9", "-c", "0.3"},
		"open F":                    {"-index", "F", "-q", "1", "-k", "3", "-json"},
	} {
		if err := runArgs(io.Discard, args...); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: err = %v, want %q", args, err, want)
		}
	}

	fs := flag.NewFlagSet("csrquery", flag.ContinueOnError)
	if err := run(io.Discard, fs, nil); err == nil {
		t.Fatal("a command line without -q answered")
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !slices.ContainsFunc(modes, func(m flagmode.Mode) bool { return m.Reads(f.Name) }) {
			t.Errorf("flag -%s is read by no mode", f.Name)
		}
	})
	for _, m := range modes {
		for _, name := range strings.Fields(m.Flags) {
			if fs.Lookup(name) == nil {
				t.Errorf("mode table names -%s, which is not a flag", name)
			}
		}
	}
}
