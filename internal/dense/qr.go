package dense

import (
	"fmt"
	"math"

	"csrplus/internal/par"
)

// QRThin computes the thin QR factorisation of an m x n matrix a (m >= n)
// using Householder reflections: a = Q R with Q (m x n) having orthonormal
// columns and R (n x n) upper triangular.
//
// The randomized truncated SVD uses this as its range orthonormaliser; it
// replaces MATLAB's qr(Y, 0).
//
// Householder QR is column work — a reflector is built from one column and
// applied to the others as a dot and an axpy down each — so the kernel
// transposes the row-major input once into a column-major panel, runs
// every inner loop over contiguous memory, and transposes thin Q back out
// (see qrPanel). The arithmetic, and its order, are those of the frozen
// row-major loop reftest.QRThin: Q and R are bitwise equal to it at every
// worker count.
func QRThin(a *Mat) (q, r *Mat, err error) {
	w, qc := make([]float64, a.Rows*a.Cols), make([]float64, a.Rows*a.Cols)
	if r, err = qrPanel(a, w, qc); err != nil {
		return nil, nil, err
	}
	return fromColumns(w, qc, a.Rows, a.Cols), r, nil
}

// qrPanel is QRThin on column-major panels the caller supplies, m*n
// elements each: w is the factorisation's workspace and qc receives thin Q
// as n contiguous length-m columns (column j is qc[j*m:(j+1)*m]). a is read
// once, by the transpose into w, before qc is first written — so qc may be
// a's own storage when the caller is done with a — and w is dead on return,
// which is where the caller transposes Q back out: a factorisation works in
// two panels, as the row-major loop did (its work copy and its Q), and a
// caller that owns two allocates none.
//
// Reflector k is applied to the columns right of k, and later to the
// columns of I, one column per par.Do index: a column's dot and axpy run
// i-ascending inside one goroutine and nothing is reduced across workers,
// so the bits do not depend on the worker count.
func qrPanel(a *Mat, w, qc []float64) (r *Mat, err error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("dense: QRThin %dx%d needs rows >= cols: %w", m, n, ErrShape)
	}
	transposeInto(w, a.Data, m, n) // n x m row-major = m x n column-major
	// betas[k] and the essential part of each Householder vector (stored
	// below the diagonal of w) define Q implicitly.
	betas := make([]float64, n)
	for k := 0; k < n; k++ {
		v := w[k*m+k : (k+1)*m] // column k from the diagonal down
		beta := householder(v)
		betas[k] = beta
		if beta == 0 {
			continue
		}
		// Apply reflector to remaining columns: A -= beta * v (vᵀ A).
		rest := n - k - 1
		par.Do(rest, 4*int64(rest)*int64(len(v)), func(lo, hi int) {
			reflectColumns(beta, v, w, m, k+1+lo, k+1+hi)
		})
	}
	r = NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Data[i*n+j] = w[j*m+i]
		}
	}
	// Accumulate thin Q by applying reflectors to I_{m x n}, backwards.
	// Until reflector k has touched it, column j < k is still e_j — zero
	// from row k down — so a finite reflector leaves it as it is, bit for
	// bit (s = 0, then 0 - 0·v), and only columns k.. need the work:
	// LAPACK dorg2r's triangle, half the square. A reflector holding NaN
	// or ±Inf does change those zeros (0·NaN), and everything it has
	// touched stays changed, so from the first such reflector on the
	// whole square is computed.
	clear(qc)
	for j := 0; j < n; j++ {
		qc[j*m+j] = 1
	}
	square := false
	for k := n - 1; k >= 0; k-- {
		beta := betas[k]
		if beta == 0 {
			continue
		}
		v := w[k*m+k : (k+1)*m]
		square = square || !allFinite(beta, v[1:])
		first := k
		if square {
			first = 0
		}
		par.Do(n-first, 4*int64(n-first)*int64(len(v)), func(lo, hi int) {
			reflectColumns(beta, v, qc, m, first+lo, first+hi)
		})
	}
	return r, nil
}

// householder overwrites x, the part of a column from the diagonal down,
// with its Householder reflector — x[0] becomes the diagonal entry of R,
// x[1:] the reflector's tail v/v₁ (its head is an implicit 1) — and
// returns the reflector's beta, 0 when x is all zero and there is nothing
// to reflect.
func householder(x []float64) (beta float64) {
	normx := 0.0
	for _, v := range x {
		normx += v * v
	}
	normx = math.Sqrt(normx)
	if normx == 0 {
		return 0
	}
	alpha := x[0]
	sign := 1.0
	if alpha < 0 {
		sign = -1.0
	}
	v1 := alpha + sign*normx
	for i := 1; i < len(x); i++ {
		x[i] /= v1
	}
	x[0] = -sign * normx
	return sign * v1 / normx
}

// reflectColumns applies the reflector (beta, v), which covers the last
// len(v) rows, to columns [jlo, jhi) of the column-major panel p (column
// length m).
// Columns go four at a time: one column's dot is a single dependent chain
// of adds, four columns' are four independent ones over one read of v.
// Each column still owns one accumulator advancing i-ascending, so the
// grouping — like the worker split above it — never shows in the bits.
func reflectColumns(beta float64, v, p []float64, m, jlo, jhi int) {
	x := func(j int) []float64 { return p[(j+1)*m-len(v) : (j+1)*m] }
	j := jlo
	for ; j+4 <= jhi; j += 4 {
		applyReflector4(beta, v, x(j), x(j+1), x(j+2), x(j+3))
	}
	for ; j < jhi; j++ {
		applyReflector(beta, v, x(j))
	}
}

// applyReflector applies the reflector (beta, v) to x in place: x -= beta·v·(vᵀx),
// with v[0] read as 1. One accumulator, i ascending.
func applyReflector(beta float64, v, x []float64) {
	x = x[:len(v)]
	s := x[0]
	for i := 1; i < len(v); i++ {
		s += v[i] * x[i]
	}
	s *= beta
	x[0] -= s
	for i := 1; i < len(v); i++ {
		x[i] -= s * v[i]
	}
}

// applyReflector4 is applyReflector on four columns at once.
func applyReflector4(beta float64, v, x0, x1, x2, x3 []float64) {
	x0, x1, x2, x3 = x0[:len(v)], x1[:len(v)], x2[:len(v)], x3[:len(v)]
	s0, s1, s2, s3 := x0[0], x1[0], x2[0], x3[0]
	for i := 1; i < len(v); i++ {
		vi := v[i]
		s0 += vi * x0[i]
		s1 += vi * x1[i]
		s2 += vi * x2[i]
		s3 += vi * x3[i]
	}
	s0 *= beta
	s1 *= beta
	s2 *= beta
	s3 *= beta
	x0[0] -= s0
	x1[0] -= s1
	x2[0] -= s2
	x3[0] -= s3
	for i := 1; i < len(v); i++ {
		vi := v[i]
		x0[i] -= s0 * vi
		x1[i] -= s1 * vi
		x2[i] -= s2 * vi
		x3[i] -= s3 * vi
	}
}

// allFinite reports whether beta and every element of v are finite.
func allFinite(beta float64, v []float64) bool {
	if beta-beta != 0 {
		return false
	}
	for _, x := range v {
		if x-x != 0 { // NaN - NaN and Inf - Inf are both NaN
			return false
		}
	}
	return true
}

// fromColumns returns the rows x cols matrix whose column j is
// columns[j*rows:(j+1)*rows], stored row-major in dst (len rows*cols).
func fromColumns(dst, columns []float64, rows, cols int) *Mat {
	transposeInto(dst, columns, cols, rows)
	return &Mat{Rows: rows, Cols: cols, Data: dst}
}

// Orthonormalize returns a matrix with orthonormal columns spanning the
// column space of a, dropping numerically dependent columns. It is QRThin
// followed by a rank check on R's diagonal: columns whose |r_kk| falls
// below tol * |r_00| are replaced by fresh unit vectors orthogonal to the
// rest (deterministic coordinate vectors re-orthogonalised by modified
// Gram-Schmidt), so the result always has full column rank. The repair
// runs on the column-major Q, before it is transposed out.
func Orthonormalize(a *Mat, tol float64) (*Mat, error) {
	return orthonormalize(a, make([]float64, a.Rows*a.Cols), make([]float64, a.Rows*a.Cols), tol)
}

// OrthonormalizeInto is Orthonormalize for a caller that owns its panels:
// the result is returned in panel's storage, which must hold a.Rows*a.Cols
// elements and share none with a, and a is consumed — its storage is the
// factorisation's second panel, left holding scratch. Nothing the size of a
// is allocated, and the result is Orthonormalize's bit for bit.
func OrthonormalizeInto(a *Mat, panel []float64, tol float64) (*Mat, error) {
	return orthonormalize(a, panel[:a.Rows*a.Cols], a.Data, tol)
}

// orthonormalize is Orthonormalize over qrPanel's two panels; the result is
// returned in w.
func orthonormalize(a *Mat, w, qc []float64, tol float64) (*Mat, error) {
	r, err := qrPanel(a, w, qc)
	if err != nil {
		return nil, err
	}
	m, n := a.Rows, a.Cols
	if tol <= 0 {
		tol = 1e-12
	}
	r00 := math.Abs(r.At(0, 0))
	if r00 == 0 {
		r00 = 1
	}
	for k := 0; k < n; k++ {
		if math.Abs(r.At(k, k)) > tol*r00 {
			continue
		}
		// Deficient column: substitute a coordinate vector orthogonalised
		// against all current columns (two MGS passes for stability).
		col := make([]float64, m)
		for e := 0; e < m; e++ {
			for i := range col {
				col[i] = 0
			}
			col[e] = 1
			for pass := 0; pass < 2; pass++ {
				for j := 0; j < n; j++ {
					if j == k {
						continue
					}
					qj := qc[j*m : (j+1)*m]
					d := 0.0
					for i, v := range qj {
						d += v * col[i]
					}
					for i, v := range qj {
						col[i] -= d * v
					}
				}
			}
			if nrm := Norm2(col); nrm > 1e-8 {
				ScaleVec(1/nrm, col)
				copy(qc[k*m:(k+1)*m], col)
				break
			}
		}
	}
	return fromColumns(w, qc, m, n), nil
}
