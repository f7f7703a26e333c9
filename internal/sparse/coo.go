// Package sparse provides the sparse-matrix substrate for the CSR+
// reproduction: COO (coordinate) triples as the ingestion format — the
// storage scheme the paper's §4.1 "Graph Storage" describes — and CSR
// (compressed sparse row) as the compute format, with the SpMV/SpMM
// kernels every CoSimRank algorithm in this repository is built on.
package sparse

import (
	"errors"
	"fmt"
	"sort"
)

// ErrIndex is returned (wrapped) for out-of-range row/column indices.
var ErrIndex = errors.New("sparse: index out of range")

// Triple is one COO entry (Row, Col, Val), i.e. the {(x, y, w)} triple of
// the paper's COO description.
type Triple struct {
	Row, Col int
	Val      float64
}

// COO is a coordinate-format sparse matrix under construction. Duplicate
// entries are allowed and are summed when converting to CSR — the usual
// COO contract.
type COO struct {
	rows, cols int
	entries    []Triple
}

// NewCOO returns an empty COO matrix of the given shape.
// It panics if rows or cols is negative.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: NewCOO(%d, %d): negative dimension", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// Dims returns the matrix shape.
func (c *COO) Dims() (rows, cols int) { return c.rows, c.cols }

// NNZ returns the number of stored entries (duplicates counted).
func (c *COO) NNZ() int { return len(c.entries) }

// Add appends entry (i, j, v). It returns ErrIndex (wrapped) when the
// coordinates fall outside the matrix.
func (c *COO) Add(i, j int, v float64) error {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		return fmt.Errorf("sparse: COO.Add(%d, %d) on %dx%d: %w", i, j, c.rows, c.cols, ErrIndex)
	}
	c.entries = append(c.entries, Triple{i, j, v})
	return nil
}

// Grow reserves capacity for n further entries.
func (c *COO) Grow(n int) {
	if cap(c.entries)-len(c.entries) < n {
		grown := make([]Triple, len(c.entries), len(c.entries)+n)
		copy(grown, c.entries)
		c.entries = grown
	}
}

// ToCSR converts to CSR: rows in order, columns ascending within a row,
// duplicate (row, col) entries summed in the order they were added. It is a
// counting sort by row, O(nnz + rows), then a stable sort of each row by
// column, which is one pass over a row that arrives in column order (an edge
// list written row by row, core.Dynamic's column-major cut) and sort.Stable
// on one that does not. The receiver is left as it was.
func (c *COO) ToCSR() *CSR {
	m := &CSR{rows: c.rows, cols: c.cols, RowPtr: make([]int64, c.rows+1)}
	// end[i] counts row i, then is where row i starts, then — advanced by
	// the scatter — where it ends, which is where row i+1 starts.
	end := make([]int, c.rows+1)
	for _, e := range c.entries {
		end[e.Row]++
	}
	total := 0
	for i, cnt := range end {
		end[i], total = total, total+cnt
	}
	cols, vals := make([]int32, len(c.entries)), make([]float64, len(c.entries))
	for _, e := range c.entries {
		p := end[e.Row]
		cols[p], vals[p] = int32(e.Col), e.Val
		end[e.Row] = p + 1
	}
	// Sort each row and merge its duplicates, compacting in place: the write
	// position never passes the read position.
	scratch := &rowByCol{}
	pos, lo := 0, 0
	for i := 0; i < c.rows; i++ {
		hi := end[i]
		sortRow(cols[lo:hi], vals[lo:hi], scratch)
		for k := lo; k < hi; {
			col, sum := cols[k], vals[k]
			for k++; k < hi && cols[k] == col; k++ {
				sum += vals[k]
			}
			cols[pos], vals[pos] = col, sum
			pos++
		}
		m.RowPtr[i+1] = int64(pos)
		lo = hi
	}
	m.ColIdx, m.Val = cols[:pos:pos], vals[:pos:pos]
	return m
}

// sortRow stably sorts one row's (column, value) pairs by column, unless
// they arrive sorted. scratch is the caller's sort.Interface adapter, reused
// so that a row costs no allocation.
func sortRow(cols []int32, vals []float64, scratch *rowByCol) {
	for k := 1; k < len(cols); k++ {
		if cols[k] < cols[k-1] {
			scratch.cols, scratch.vals = cols, vals
			sort.Stable(scratch)
			return
		}
	}
}

// rowByCol orders one row's parallel slices by column.
type rowByCol struct {
	cols []int32
	vals []float64
}

func (r *rowByCol) Len() int           { return len(r.cols) }
func (r *rowByCol) Less(i, j int) bool { return r.cols[i] < r.cols[j] }
func (r *rowByCol) Swap(i, j int) {
	r.cols[i], r.cols[j] = r.cols[j], r.cols[i]
	r.vals[i], r.vals[j] = r.vals[j], r.vals[i]
}
