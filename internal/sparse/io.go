package sparse

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// ErrMalformed is returned (wrapped) when an edge-list stream cannot be
// parsed.
var ErrMalformed = errors.New("sparse: malformed edge list")

// ReadEdgeList parses a SNAP-style whitespace-separated edge list
// ("src dst" per line, '#' comments and blank lines ignored) into a COO
// matrix with value 1 per edge. Node ids must be in [0, n). The dst stream
// is the matrix column, matching the reproduction's convention that entry
// (u, v) represents the edge u -> v.
func ReadEdgeList(r io.Reader, n int) (*COO, error) {
	return readEdgeList(r, n, false)
}

// ReadWeightedEdgeList parses a whitespace-separated weighted edge list
// ("src dst weight" per line, '#' comments and blank lines ignored) into
// a COO matrix. Node ids must be in [0, n); weights must parse as positive
// finite floats (duplicates sum on conversion).
func ReadWeightedEdgeList(r io.Reader, n int) (*COO, error) {
	return readEdgeList(r, n, true)
}

// readEdgeList is the one parser behind both readers; weighted adds the
// third column. It works on the scanner's own line buffer, splitting fields
// in place, so a line costs no allocation beyond the COO's growth.
func readEdgeList(r io.Reader, n int, weighted bool) (*COO, error) {
	need, what := 2, "edge list"
	if weighted {
		need, what = 3, "weighted edge list"
	}
	coo := NewCOO(n, n)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		var fields [3][]byte // src, dst, weight; anything after them is ignored
		count, rest := 0, text
		for count < need {
			if fields[count], rest = nextField(rest); len(fields[count]) == 0 {
				break
			}
			count++
		}
		if count < need {
			return nil, fmt.Errorf("line %d: %q has %d fields, need %d: %w", line, text, count, need, ErrMalformed)
		}
		// strconv keeps no reference to its argument, so the conversions
		// of these short fields stay on the stack.
		u, err := strconv.Atoi(string(fields[0]))
		if err != nil {
			return nil, fmt.Errorf("line %d: bad source %q: %w", line, fields[0], ErrMalformed)
		}
		v, err := strconv.Atoi(string(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("line %d: bad target %q: %w", line, fields[1], ErrMalformed)
		}
		w := 1.0
		if weighted {
			if w, err = strconv.ParseFloat(string(fields[2]), 64); err != nil {
				return nil, fmt.Errorf("line %d: bad weight %q: %w", line, fields[2], ErrMalformed)
			}
			// ParseFloat happily returns NaN and ±Inf; none of them (nor a
			// non-positive weight) has a random-surfer reading downstream.
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

// nextField returns the first field of b and what follows it, fields being
// separated by white space as strings.Fields defines it (unicode.IsSpace).
// field is empty when b holds none.
func nextField(b []byte) (field, rest []byte) {
	for len(b) > 0 {
		n := spaceLen(b)
		if n == 0 {
			break
		}
		b = b[n:]
	}
	end := 0
	for end < len(b) && spaceLen(b[end:]) == 0 {
		// A byte at a time is enough: no byte inside a rune's encoding
		// starts the encoding of another.
		end++
	}
	return b[:end], b[end:]
}

// spaceLen returns the length of the white-space rune b starts with, 0 when
// it starts with anything else. ASCII is decided without decoding.
func spaceLen(b []byte) int {
	if c := b[0]; c < utf8.RuneSelf {
		if c == ' ' || '\t' <= c && c <= '\r' {
			return 1
		}
		return 0
	}
	if r, size := utf8.DecodeRune(b); unicode.IsSpace(r) {
		return size
	}
	return 0
}

// WriteEdgeList emits the nonzero pattern of m as a "src dst" edge list.
// Values are not written; the format carries structure only.
func WriteEdgeList(w io.Writer, m *CSR) error {
	bw := bufio.NewWriter(w)
	rows, _ := m.Dims()
	for i := 0; i < rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if _, err := fmt.Fprintf(bw, "%d %d\n", i, m.ColIdx[p]); err != nil {
				return fmt.Errorf("sparse: writing edge list: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("sparse: flushing edge list: %w", err)
	}
	return nil
}
