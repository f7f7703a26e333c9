package sparse

import (
	"errors"
	"fmt"
	"sync/atomic"

	"csrplus/internal/dense"
	"csrplus/internal/par"
	"csrplus/internal/simd"
)

// CSR is a compressed-sparse-row matrix: row i's entries live at positions
// RowPtr[i] .. RowPtr[i+1] in ColIdx/Val, with ColIdx sorted ascending
// within each row. Column indices are int32 (the reproduction's graphs stay
// under 2³¹ nodes); row pointers are int64 so edge counts may exceed 2³¹.
type CSR struct {
	rows, cols int
	RowPtr     []int64
	ColIdx     []int32
	Val        []float64
}

// ErrCorrupt is returned (wrapped) when the arrays handed to NewCSR fail
// validation.
var ErrCorrupt = errors.New("sparse: corrupt matrix")

// NewCSR returns the rows x cols matrix over the given arrays, which it
// keeps, once they hold the format's structural invariants: one row pointer
// past every row, a value per column index, row pointers that start at 0,
// never decrease and end at the entry count, and column indices inside the
// shape. Anything else is ErrCorrupt (wrapped).
func NewCSR(rows, cols int, rowPtr []int64, colIdx []int32, val []float64) (*CSR, error) {
	if rows < 0 || cols < 0 || len(rowPtr) != rows+1 || len(val) != len(colIdx) {
		return nil, fmt.Errorf("sparse: %d row pointers, %d column indices and %d values for %dx%d: %w",
			len(rowPtr), len(colIdx), len(val), rows, cols, ErrCorrupt)
	}
	if rowPtr[0] != 0 || rowPtr[rows] != int64(len(colIdx)) {
		return nil, fmt.Errorf("sparse: row pointers do not bracket nnz: %w", ErrCorrupt)
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("sparse: row pointer %d decreases: %w", i, ErrCorrupt)
		}
	}
	for _, j := range colIdx {
		if j < 0 || int(j) >= cols {
			return nil, fmt.Errorf("sparse: column index %d out of range: %w", j, ErrCorrupt)
		}
	}
	return &CSR{rows: rows, cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, nil
}

// Dims returns the matrix shape.
func (m *CSR) Dims() (rows, cols int) { return m.rows, m.cols }

// Clone returns a deep copy of m.
func (m *CSR) Clone() *CSR {
	return &CSR{
		rows:   m.rows,
		cols:   m.cols,
		RowPtr: append([]int64(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int64 { return int64(len(m.ColIdx)) }

// Bytes reports the memory footprint of the matrix payload in bytes.
func (m *CSR) Bytes() int64 {
	return int64(len(m.RowPtr))*8 + int64(len(m.ColIdx))*4 + int64(len(m.Val))*8
}

// At returns element (i, j) by binary search within row i. O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: CSR.At(%d, %d) on %dx%d: %v", i, j, m.rows, m.cols, ErrIndex))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch c := int(m.ColIdx[mid]); {
		case c == j:
			return m.Val[mid]
		case c < j:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// Transpose returns the transpose of m, still in CSR (equivalently, m in
// CSC). O(nnz + rows + cols).
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		rows:   m.cols,
		cols:   m.rows,
		RowPtr: make([]int64, m.cols+1),
		ColIdx: make([]int32, len(m.ColIdx)),
		Val:    make([]float64, len(m.Val)),
	}
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for i := 0; i < m.cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int64, m.cols)
	copy(next, t.RowPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j := m.ColIdx[p]
			q := next[j]
			t.ColIdx[q] = int32(i)
			t.Val[q] = m.Val[p]
			next[j]++
		}
	}
	return t
}

// Support returns m restricted to its support — the rows and the columns
// that hold at least one stored entry — together with the original index of
// every row and column it kept, ascending. Dropping an empty row or column
// moves no entry relative to the others, so s stores m's entries in m's
// order: Val is shared with m, and RowPtr and ColIdx are too unless a row
// (respectively a column) was dropped, when they are rebuilt with the
// kept rows' extents and the column ids renumbered. A nil index slice means
// that side lost nothing and s's indices there are m's own; a matrix with no
// empty row or column is returned as it is. An explicitly stored zero counts
// as an entry. O(nnz + rows + cols).
func (m *CSR) Support() (s *CSR, rows, cols []int32) {
	return m.support(nil)
}

// ScaledSupport is Support of m·diag(scale) — column j of m times scale[j]
// — built without touching m or copying it whole: s's values are a new
// array, each m's value times its column's factor (the one product
// ScaleColumns would have made), in m's order; everything else is as
// Support returns it. It panics unless scale has one factor per column.
func (m *CSR) ScaledSupport(scale []float64) (s *CSR, rows, cols []int32) {
	if len(scale) != m.cols {
		panic(fmt.Sprintf("sparse: ScaledSupport len %d on %d cols", len(scale), m.cols))
	}
	return m.support(scale)
}

// support is Support, with the values scaled by column into a new array
// when scale is non-nil.
func (m *CSR) support(scale []float64) (s *CSR, rows, cols []int32) {
	renum := make([]int32, m.cols) // 1 marks a column seen, then its new id
	for _, j := range m.ColIdx {
		renum[j] = 1
	}
	nc := 0
	for _, seen := range renum {
		nc += int(seen)
	}
	nr := 0
	for i := 0; i < m.rows; i++ {
		if m.RowPtr[i+1] > m.RowPtr[i] {
			nr++
		}
	}
	s = &CSR{rows: nr, cols: nc, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: m.Val}
	if scale != nil {
		s.Val = make([]float64, len(m.Val))
		for p, j := range m.ColIdx {
			s.Val[p] = m.Val[p] * scale[j]
		}
	}
	if nr == m.rows && nc == m.cols {
		if scale == nil {
			return m, nil, nil
		}
		return s, nil, nil
	}
	if nr < m.rows {
		rows = make([]int32, 0, nr)
		s.RowPtr = make([]int64, 1, nr+1)
		for i := 0; i < m.rows; i++ {
			if end := m.RowPtr[i+1]; end > m.RowPtr[i] {
				rows = append(rows, int32(i))
				s.RowPtr = append(s.RowPtr, end)
			}
		}
	}
	if nc < m.cols {
		cols = make([]int32, 0, nc)
		for j, seen := range renum {
			if seen != 0 {
				renum[j] = int32(len(cols))
				cols = append(cols, int32(j))
			}
		}
		s.ColIdx = make([]int32, len(m.ColIdx))
		for p, j := range m.ColIdx {
			s.ColIdx[p] = renum[j]
		}
	}
	return s, rows, cols
}

// Embed is Support's inverse: m read as the support block of a rows x cols
// matrix, its row i being row rowIdx[i] and its column j column colIdx[j]
// (nil: that side in place), returned as that matrix. The entries keep m's
// order and Val is shared, so Embed of what Support returned stores the
// original's entries bit for bit. m itself comes back when both maps are
// nil. It panics on a map that does not fit the shapes.
func (m *CSR) Embed(rows, cols int, rowIdx, colIdx []int32) *CSR {
	if (rowIdx == nil && m.rows != rows) || (rowIdx != nil && len(rowIdx) != m.rows) ||
		(colIdx == nil && m.cols != cols) || (colIdx != nil && len(colIdx) != m.cols) {
		panic(fmt.Sprintf("sparse: Embed %dx%d with %d row and %d column ids into %dx%d", m.rows, m.cols, len(rowIdx), len(colIdx), rows, cols))
	}
	if rowIdx == nil && colIdx == nil {
		return m
	}
	e := &CSR{rows: rows, cols: cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Val: m.Val}
	if rowIdx != nil {
		e.RowPtr = make([]int64, rows+1)
		next := 0
		for i := 0; i < rows; i++ {
			if next < len(rowIdx) && int(rowIdx[next]) == i {
				next++
			}
			e.RowPtr[i+1] = m.RowPtr[next]
		}
	}
	if colIdx != nil {
		e.ColIdx = make([]int32, len(m.ColIdx))
		for p, j := range m.ColIdx {
			e.ColIdx[p] = colIdx[j]
		}
	}
	return e
}

// MulVec computes y = m * x, reusing y when it has the right length.
// It panics on dimension mismatch. Large products split their rows across
// par.Workers goroutines at equal shares of the stored entries; a row is
// summed by one goroutine in storage order, so y has the same bits at every
// worker count.
func (m *CSR) MulVec(x, y []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec %dx%d * vec(%d)", m.rows, m.cols, len(x)))
	}
	if len(y) != m.rows {
		y = make([]float64, m.rows)
	}
	par.DoWeighted(m.RowPtr[:m.rows+1], m.NNZ(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				s += m.Val[p] * x[m.ColIdx[p]]
			}
			y[i] = s
		}
	})
	return y
}

// MulVecT computes y = mᵀ * x without materialising the transpose,
// reusing y when it has the right length. It panics on dimension mismatch.
func (m *CSR) MulVecT(x, y []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("sparse: MulVecT (%dx%d)ᵀ * vec(%d)", m.rows, m.cols, len(x)))
	}
	if len(y) != m.cols {
		y = make([]float64, m.cols)
	} else {
		for i := range y {
			y[i] = 0
		}
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			y[m.ColIdx[p]] += m.Val[p] * xi
		}
	}
	return y
}

// MulDense computes m * b for a dense b, i.e. the SpMM kernel used by the
// truncated SVD (A * Omega) and by the dense-iteration baselines, into a
// new matrix. See MulDenseInto.
func (m *CSR) MulDense(b *dense.Mat) *dense.Mat {
	out := dense.NewMat(m.rows, b.Cols)
	m.MulDenseInto(out, b)
	return out
}

// kernelTier is the tier MulDenseInto's row body runs: simd.Detected unless
// a test lowers it (SetKernelTier in export_test.go). Atomic because
// kernels run inside par workers while a test may switch it.
var kernelTier atomic.Uint32

func init() { kernelTier.Store(uint32(simd.Detected())) }

// MulDenseInto computes out = m * b. out must be rows x b.Cols and share no
// storage with b; every element of it is written and none is read, so it
// need not be zeroed — a caller that owns its panels hands a dead one back.
// It panics on a shape mismatch.
//
// Output rows are split across par.Workers goroutines for large products,
// at row boundaries that give each an equal share of the stored entries
// (a graph's hub rows would leave an even split of the row count lopsided).
// Each row is written by exactly one goroutine in a fixed order, so the
// result is bitwise-deterministic at every worker count.
//
// Within a row, output columns are taken in groups — blocks of eight by an
// assembly kernel where there is one (spmmRowY sweeps three blocks at a
// time at tier AVX2, spmmRow8 one at tier SSE2), then four at a time, then
// singly — with the group's accumulators held in registers across one sweep
// of the row's stored entries (whose index/value slices are L1-resident on the
// repeat sweeps), instead of streaming read-modify-write traffic through
// the output row once per entry. Each output element still sums its
// products from +0 in storage (ascending-p) order with no value-dependent
// skips, so the result is bitwise-equal to reftest.CSRMulDense — 0·NaN and
// 0·Inf corners included.
func (m *CSR) MulDenseInto(out, b *dense.Mat) {
	k := b.Cols
	if m.cols != b.Rows || out.Rows != m.rows || out.Cols != k || len(b.Data) != b.Rows*k || len(out.Data) != m.rows*k {
		panic(fmt.Sprintf("sparse: MulDenseInto %dx%d = %dx%d * %dx%d", out.Rows, out.Cols, m.rows, m.cols, b.Rows, b.Cols))
	}
	tier := simd.Tier(kernelTier.Load())
	blocks := 0 // groups of eight columns the assembly kernel takes
	if tier >= simd.SSE2 {
		blocks = k / 8
	}
	par.DoWeighted(m.RowPtr[:m.rows+1], m.NNZ()*int64(k), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			plo, phi := m.RowPtr[i], m.RowPtr[i+1]
			idx := m.ColIdx[plo:phi]
			val := m.Val[plo:phi]
			orow := out.Data[i*k : (i+1)*k]
			if len(val) == 0 {
				clear(orow)
				continue
			}
			switch {
			case blocks == 0:
			case tier >= simd.AVX2:
				spmmRowY(&orow[0], &b.Data[0], &val[0], &idx[0], int64(len(val)), int64(k), int64(blocks))
			default:
				spmmRow8(&orow[0], &b.Data[0], &val[0], &idx[0], int64(len(val)), int64(k), int64(blocks))
			}
			c := 8 * blocks
			for ; c+4 <= k; c += 4 {
				var s0, s1, s2, s3 float64
				for p, v := range val {
					t := int(idx[p])*k + c
					brow := b.Data[t : t+4]
					s0 += v * brow[0]
					s1 += v * brow[1]
					s2 += v * brow[2]
					s3 += v * brow[3]
				}
				orow[c], orow[c+1], orow[c+2], orow[c+3] = s0, s1, s2, s3
			}
			for ; c < k; c++ {
				var s float64
				for p, v := range val {
					s += v * b.Data[int(idx[p])*k+c]
				}
				orow[c] = s
			}
		}
	})
}

// MulDenseT computes mᵀ * b for a dense b without materialising mᵀ —
// except when the product is large enough to parallelise: the natural
// loop scatters into output rows keyed by column index and would race
// under row partitioning, so the parallel path materialises the
// transpose once (O(nnz + rows + cols), small next to the O(nnz·k)
// multiply) and runs the gather-ordered MulDense on it. Transpose keeps
// each output row's entries in ascending original-row order — the exact
// summation order of the serial scatter loop — so both paths, and every
// worker count, produce identical bits.
func (m *CSR) MulDenseT(b *dense.Mat) *dense.Mat {
	if m.rows != b.Rows {
		panic(fmt.Sprintf("sparse: MulDenseT (%dx%d)ᵀ * %dx%d", m.rows, m.cols, b.Rows, b.Cols))
	}
	if flops := m.NNZ() * int64(b.Cols); flops >= par.DefaultThreshold && par.Workers() > 1 {
		return m.Transpose().MulDense(b)
	}
	out := dense.NewMat(m.cols, b.Cols)
	k := b.Cols
	for i := 0; i < m.rows; i++ {
		brow := b.Data[i*k : (i+1)*k]
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			v := m.Val[p]
			orow := out.Data[int(m.ColIdx[p])*k : (int(m.ColIdx[p])+1)*k]
			for c, bv := range brow {
				orow[c] += v * bv
			}
		}
	}
	return out
}

// DenseMulCSR computes b * m for a dense b — the right-side SpMM used by
// the all-pairs iteration S ← c QᵀS Q + I, whose inner step is (QᵀS)Q.
// Rows of b (hence of the output) are partitioned across par.Workers
// goroutines; each output row is accumulated by one goroutine in the
// serial order, so results are bitwise-deterministic at every worker
// count.
//
// Rows are processed four at a time (par.DoAligned keeps worker splits
// on tile boundaries) so each sweep of m's index/value arrays feeds
// four output rows — a 4× cut in the kernel's dominant memory stream.
// Grouping never touches any single element's accumulation order
// (k ascending, entries in storage order), and there is no skip on
// zero b values — an earlier version had one, which silently dropped
// the IEEE-required NaN from 0·NaN and 0·±Inf terms — so results are
// bitwise-equal to reftest.DenseMulCSR.
func DenseMulCSR(b *dense.Mat, m *CSR) *dense.Mat {
	if b.Cols != m.rows {
		panic(fmt.Sprintf("sparse: DenseMulCSR %dx%d * %dx%d", b.Rows, b.Cols, m.rows, m.cols))
	}
	out := dense.NewMat(b.Rows, m.cols)
	par.DoAligned(b.Rows, 4, m.NNZ()*int64(b.Rows), func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			b0 := b.Data[(i+0)*b.Cols : (i+1)*b.Cols]
			b1 := b.Data[(i+1)*b.Cols : (i+2)*b.Cols]
			b2 := b.Data[(i+2)*b.Cols : (i+3)*b.Cols]
			b3 := b.Data[(i+3)*b.Cols : (i+4)*b.Cols]
			o0 := out.Data[(i+0)*m.cols : (i+1)*m.cols]
			o1 := out.Data[(i+1)*m.cols : (i+2)*m.cols]
			o2 := out.Data[(i+2)*m.cols : (i+3)*m.cols]
			o3 := out.Data[(i+3)*m.cols : (i+4)*m.cols]
			for k, bv0 := range b0 {
				bv1, bv2, bv3 := b1[k], b2[k], b3[k]
				plo, phi := m.RowPtr[k], m.RowPtr[k+1]
				idx := m.ColIdx[plo:phi]
				val := m.Val[plo:phi]
				for p, v := range val {
					j := idx[p]
					o0[j] += bv0 * v
					o1[j] += bv1 * v
					o2[j] += bv2 * v
					o3[j] += bv3 * v
				}
			}
		}
		for ; i < hi; i++ {
			brow := b.Data[i*b.Cols : (i+1)*b.Cols]
			orow := out.Data[i*m.cols : (i+1)*m.cols]
			for k, bv := range brow {
				plo, phi := m.RowPtr[k], m.RowPtr[k+1]
				idx := m.ColIdx[plo:phi]
				val := m.Val[plo:phi]
				for p, v := range val {
					orow[idx[p]] += bv * v
				}
			}
		}
	})
	return out
}

// ToDense materialises the matrix densely — test/reference use only.
func (m *CSR) ToDense() *dense.Mat {
	out := dense.NewMat(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out.Set(i, int(m.ColIdx[p]), m.Val[p])
		}
	}
	return out
}

// ScaleColumns multiplies column j by s[j], in place. Used to build the
// column-normalised transition matrix Q = A * D⁻¹.
func (m *CSR) ScaleColumns(s []float64) {
	if len(s) != m.cols {
		panic(fmt.Sprintf("sparse: ScaleColumns len %d on %d cols", len(s), m.cols))
	}
	for p, j := range m.ColIdx {
		m.Val[p] *= s[j]
	}
}

// ColSums returns the per-column sums of the matrix.
func (m *CSR) ColSums() []float64 {
	sums := make([]float64, m.cols)
	for p, j := range m.ColIdx {
		sums[j] += m.Val[p]
	}
	return sums
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }
