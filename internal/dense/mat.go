// Package dense implements the dense linear-algebra kernels that the CSR+
// reproduction depends on: a row-major float64 matrix type, blocked
// matrix-matrix products, Householder QR, one-sided Jacobi SVD, a symmetric
// Jacobi eigensolver, Kronecker (tensor) products, the vec(*) operator, and
// assorted norms and solvers.
//
// The package replaces the MATLAB dense kernels used by the paper's
// implementation. Everything is stdlib-only and deterministic: the
// parallel kernels (scheduled through internal/par) either give each
// output element to exactly one goroutine in a fixed accumulation order,
// or reduce over a chunk grid chosen from the problem size alone — so
// the same input yields the same bits at every GOMAXPROCS.
package dense

import (
	"errors"
	"fmt"
	"math"

	"csrplus/internal/par"
)

// ErrShape is returned (wrapped) when matrix dimensions do not conform.
var ErrShape = errors.New("dense: dimension mismatch")

// ErrSingular is returned (wrapped) when a solve meets a singular matrix.
var ErrSingular = errors.New("dense: singular matrix")

// Mat is a dense row-major matrix. The zero value is an empty 0x0 matrix.
// Data holds Rows*Cols float64 values; element (i, j) lives at
// Data[i*Cols+j].
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a zeroed r x c matrix.
// It panics if r or c is negative.
func NewMat(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: NewMat(%d, %d): negative dimension", r, c))
	}
	return &Mat{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatFrom returns an r x c matrix backed by a copy of data (row-major).
// It panics if len(data) != r*c.
func NewMatFrom(r, c int, data []float64) *Mat {
	if len(data) != r*c {
		panic(fmt.Sprintf("dense: NewMatFrom(%d, %d): need %d values, got %d", r, c, r*c, len(data)))
	}
	m := NewMat(r, c)
	copy(m.Data, data)
	return m
}

// Eye returns the n x n identity matrix.
func Eye(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Diag returns a square diagonal matrix whose diagonal is d.
func Diag(d []float64) *Mat {
	n := len(d)
	m := NewMat(n, n)
	for i, v := range d {
		m.Data[i*n+i] = v
	}
	return m
}

// At returns element (i, j). Bounds are checked by the slice access.
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Reuse reshapes m to r x c, reusing its backing array when the capacity
// suffices and allocating a fresh matrix otherwise (a nil receiver always
// allocates). The returned matrix's contents are unspecified garbage —
// callers must overwrite every element. This is the scratch-reuse hook
// the serving hot path uses to avoid an n x |Q| allocation per batch.
func (m *Mat) Reuse(r, c int) *Mat {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("dense: Reuse(%d, %d): negative dimension", r, c))
	}
	if m == nil || cap(m.Data) < r*c {
		return NewMat(r, c)
	}
	m.Rows, m.Cols = r, c
	m.Data = m.Data[:r*c]
	return m
}

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Bytes reports the memory footprint of the matrix payload in bytes.
func (m *Mat) Bytes() int64 { return int64(len(m.Data)) * 8 }

// IsShape reports whether m has exactly r rows and c columns.
func (m *Mat) IsShape(r, c int) bool { return m.Rows == r && m.Cols == c }

// T returns the transpose of m as a new matrix, by cache-friendly blocks.
func (m *Mat) T() *Mat {
	const bs = 64
	rows, cols := m.Rows, m.Cols
	t := NewMat(cols, rows)
	par.Do((rows+bs-1)/bs, int64(rows)*int64(cols), func(lo, hi int) {
		for ii := lo * bs; ii < min(hi*bs, rows); ii += bs {
			for jj := 0; jj < cols; jj += bs {
				for i := ii; i < min(ii+bs, rows); i++ {
					row := m.Row(i)
					for j := jj; j < min(jj+bs, cols); j++ {
						t.Data[j*rows+i] = row[j]
					}
				}
			}
		}
	})
	return t
}

// Scale multiplies every element of m by a, in place, and returns m.
func (m *Mat) Scale(a float64) *Mat {
	for i := range m.Data {
		m.Data[i] *= a
	}
	return m
}

// AddInPlace adds b to m element-wise, in place, and returns m.
// It panics if shapes differ.
func (m *Mat) AddInPlace(b *Mat) *Mat {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("dense: AddInPlace %dx%d += %dx%d: %v", m.Rows, m.Cols, b.Rows, b.Cols, ErrShape))
	}
	for i, v := range b.Data {
		m.Data[i] += v
	}
	return m
}

// Sub returns m - b as a new matrix. It panics if shapes differ.
func (m *Mat) Sub(b *Mat) *Mat {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("dense: Sub %dx%d - %dx%d: %v", m.Rows, m.Cols, b.Rows, b.Cols, ErrShape))
	}
	out := m.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// AddEye adds a*I to the square matrix m in place and returns m.
// It panics if m is not square.
func (m *Mat) AddEye(a float64) *Mat {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("dense: AddEye on %dx%d: %v", m.Rows, m.Cols, ErrShape))
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += a
	}
	return m
}

// Col copies column j into dst (allocating when dst is nil) and returns it.
func (m *Mat) Col(j int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// SetCol assigns column j from src.
func (m *Mat) SetCol(j int, src []float64) {
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = src[i]
	}
}

// SliceRows returns a new matrix holding rows [from, to) of m.
func (m *Mat) SliceRows(from, to int) *Mat {
	if from < 0 || to > m.Rows || from > to {
		panic(fmt.Sprintf("dense: SliceRows[%d:%d] of %d rows", from, to, m.Rows))
	}
	out := NewMat(to-from, m.Cols)
	copy(out.Data, m.Data[from*m.Cols:to*m.Cols])
	return out
}

// MaxAbs returns max_ij |m_ij| (the max norm), 0 for an empty matrix.
func (m *Mat) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// FrobNorm returns the Frobenius norm of m.
func (m *Mat) FrobNorm() float64 {
	// Scaled accumulation to avoid overflow on large entries.
	scale, ssq := 0.0, 1.0
	for _, v := range m.Data {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			ssq = 1 + ssq*(scale/a)*(scale/a)
			scale = a
		} else {
			ssq += (a / scale) * (a / scale)
		}
	}
	return scale * math.Sqrt(ssq)
}

// Equal reports whether m and b agree element-wise within tol.
func (m *Mat) Equal(b *Mat, tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// HasNaN reports whether any element is NaN or infinite.
func (m *Mat) HasNaN() bool {
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// String renders small matrices for debugging; large ones are abbreviated.
func (m *Mat) String() string {
	if m.Rows*m.Cols > 400 {
		return fmt.Sprintf("Mat(%dx%d)", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%9.4f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
