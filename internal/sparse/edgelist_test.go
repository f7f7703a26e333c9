package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// refReadEdgeList is ReadEdgeList and ReadWeightedEdgeList as they stood
// until PR 20 — a string, a trimmed copy and a []string per line — folded
// into one body by the weighted switch; the oracle the in-place parser's
// entries, error texts and line numbers are held to.
func refReadEdgeList(r io.Reader, n int, weighted bool) (*COO, error) {
	need, what := 2, "edge list"
	if weighted {
		need, what = 3, "weighted edge list"
	}
	coo := NewCOO(n, n)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < need {
			return nil, fmt.Errorf("line %d: %q has %d fields, need %d: %w", line, text, len(fields), need, ErrMalformed)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad source %q: %w", line, fields[0], ErrMalformed)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad target %q: %w", line, fields[1], ErrMalformed)
		}
		w := 1.0
		if weighted {
			if w, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, fmt.Errorf("line %d: bad weight %q: %w", line, fields[2], ErrMalformed)
			}
			if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
				return nil, fmt.Errorf("line %d: weight %q must be positive and finite: %w", line, fields[2], ErrMalformed)
			}
		}
		if err := coo.Add(u, v, w); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading %s: %w", what, err)
	}
	return coo, nil
}

// checkEdgeListReaders holds both readers to the reference on one input:
// the same triples in the same order, or the same error text.
func checkEdgeListReaders(t *testing.T, input string) {
	t.Helper()
	for _, weighted := range []bool{false, true} {
		got, gotErr := readEdgeList(strings.NewReader(input), 10, weighted)
		want, wantErr := refReadEdgeList(strings.NewReader(input), 10, weighted)
		switch {
		case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("weighted=%v %q: err = %v, want %v", weighted, input, gotErr, wantErr)
		case gotErr == nil && !slices.Equal(got.entries, want.entries):
			t.Fatalf("weighted=%v %q: entries %v, want %v", weighted, input, got.entries, want.entries)
		}
	}
}

// edgeListInputs is shared by Test_ReadEdgeList and FuzzReadEdgeList's
// differential half: every refusal the readers have, with its line number
// pushed off 1 by comments and blanks, and the spacing strings.Fields
// accepts — tabs, runs, CRLF, Unicode spaces, trailing fields.
var edgeListInputs = []string{
	"",
	"0 1\n1 2\n",
	"# comment\n\n5 5\n",
	"  0\t 1 \r\n\t\n#x\n 2   3   0.5   trailing fields\n",
	"0 1\n1 2 0.25\n", // no-break and em spaces split fields
	" # not a comment: the line is trimmed first\n",
	"0 1 2.5\n1 2\n",
	"#\n\n0\n",
	"0 1\n2 ",
	"a b\n",
	"0 1\n1 y 3\n",
	"0 1 zz\n",
	"0 1 NaN\n", "0 1 Inf\n", "0 1 -Inf\n", "0 1 0\n", "0 1 -2\n", "0 1 1e400\n",
	"-1 3\n", "0 10\n", "0 99 1\n",
	"+3 0x4\n", "1_0 2\n", "99999999999999999999 1\n",
	"0 1 0x1p-2\n",
	"\xff\xfe 1\n",
	strings.Repeat("7", 100) + " 1\n", // a field too long for a stack conversion
}

func Test_ReadEdgeList(t *testing.T) {
	for _, in := range edgeListInputs {
		checkEdgeListReaders(t, in)
	}
	// A line past the scanner's 1 MiB bound fails both readers alike, each
	// naming its format.
	checkEdgeListReaders(t, "0 1\n"+strings.Repeat("9", 1<<20+1)+"\n")
}

// edgeListLines renders a 10-node edge list of the given length.
func edgeListLines(lines int) string {
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "%d %d 0.5\n", i%10, (7*i+3)%10)
	}
	return sb.String()
}

// The parser's allocations are the scanner, its buffer and the COO's
// doublings — nothing per line.
func TestReadEdgeListAllocatesNothingPerLine(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		allocs := func(lines int) float64 {
			in := edgeListLines(lines)
			return testing.AllocsPerRun(5, func() {
				if coo, err := readEdgeList(strings.NewReader(in), 10, weighted); err != nil || coo.NNZ() != lines {
					t.Fatalf("parsed %v entries, err %v", coo, err)
				}
			})
		}
		// append grows a large slice by a quarter at a time: ten times the
		// lines is about ten more reallocations, never ten times as many.
		if small, large := allocs(1_000), allocs(10_000); large > 40 || large > small+15 {
			t.Fatalf("weighted=%v: %v allocations for 1000 lines, %v for 10000", weighted, small, large)
		}
	}
}

// Benchmark_ReadEdgeList prices a 100 000-line edge list through the
// in-place parser and through the per-line-allocating reference.
func Benchmark_ReadEdgeList(b *testing.B) {
	const lines = 100_000
	in := edgeListLines(lines)
	for _, bc := range []struct {
		name  string
		parse func(io.Reader, int, bool) (*COO, error)
	}{{"in-place", readEdgeList}, {"reference", refReadEdgeList}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.parse(strings.NewReader(in), 10, false); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(lines*float64(b.N)/b.Elapsed().Seconds(), "lines/s")
		})
	}
}
