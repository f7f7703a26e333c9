// Package reftest holds the frozen reference kernels the tiled matmul
// implementations in internal/dense and internal/sparse, and the
// column-major Householder QR, are differentially tested against. Each
// reference is the plain naive loop — one accumulator per output element
// (per column dot, for the QR), summed in a single fixed index order, with
// no value-dependent skips beyond the reference's own — and is therefore
// the *definition* of each kernel's semantics, including IEEE-754 corner
// behaviour (0·NaN = NaN, 0·±Inf = NaN, signed-zero accumulation,
// subnormals).
//
// The references are deliberately slow and must never be "optimised":
// any change to a loop here changes the contract every production kernel
// is held to bitwise. New kernels are admitted by proving, via the fuzz
// and property suites in internal/dense and internal/sparse, that they
// reproduce these loops bit for bit (the chunk-reduced TMul is the one
// documented exception: its parallel path is a fixed reordering of the
// reference sum, bitwise-stable across worker counts but only
// rounding-close to the serial reference).
//
// The CSR references take raw CSR arrays rather than a *sparse.CSR so the
// package stays importable from internal/sparse's own tests without an
// import cycle.
package reftest

import (
	"math"

	"csrplus/internal/dense"
)

// Mul returns a·b by the naive ikj loop, every term accumulated — no
// zero skip, so 0·NaN and 0·Inf propagate exactly as IEEE demands.
// Element (i, j) is accumulated over k ascending.
func Mul(a, b *dense.Mat) *dense.Mat {
	out := dense.NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.At(i, k)
			for j := 0; j < b.Cols; j++ {
				out.Data[i*b.Cols+j] += av * b.At(k, j)
			}
		}
	}
	return out
}

// MulT returns a·bᵀ: one dot product per output element, accumulated
// over k ascending.
func MulT(a, b *dense.Mat) *dense.Mat {
	out := dense.NewMat(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Data[i*b.Rows+j] = s
		}
	}
	return out
}

// TMul returns aᵀ·b with element (i, j) accumulated over the shared
// dimension k ascending. The production TMul's above-threshold path
// reduces par.Grid chunk partials in chunk order — a fixed reordering of
// this sum — so differential tests hold it bitwise to TMulChunked below
// and rounding-close (not bitwise) to this serial reference.
func TMul(a, b *dense.Mat) *dense.Mat {
	out := dense.NewMat(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		for i := 0; i < a.Cols; i++ {
			av := a.At(k, i)
			for j := 0; j < b.Cols; j++ {
				out.Data[i*b.Cols+j] += av * b.At(k, j)
			}
		}
	}
	return out
}

// TMulChunked returns aᵀ·b accumulated the way the production kernel's
// deterministic reduction does: the shared dimension is cut at multiples
// of chunk, each chunk is summed by the naive loop into its own partial,
// and partials are added in chunk order. chunk ≤ 0 or ≥ a.Rows degrades
// to the serial reference.
func TMulChunked(a, b *dense.Mat, chunk int) *dense.Mat {
	if chunk <= 0 || chunk >= a.Rows {
		return TMul(a, b)
	}
	out := dense.NewMat(a.Cols, b.Cols)
	for klo := 0; klo < a.Rows; klo += chunk {
		khi := klo + chunk
		if khi > a.Rows {
			khi = a.Rows
		}
		part := dense.NewMat(a.Cols, b.Cols)
		for k := klo; k < khi; k++ {
			for i := 0; i < a.Cols; i++ {
				av := a.At(k, i)
				for j := 0; j < b.Cols; j++ {
					part.Data[i*b.Cols+j] += av * b.At(k, j)
				}
			}
		}
		for i, v := range part.Data {
			out.Data[i] += v
		}
	}
	return out
}

// CSRMulDense returns m·b for a CSR m given as raw arrays (rows from
// rowptr/colidx/val, shape rows×cols). Element (i, c) accumulates the
// stored entries of row i in storage (ascending-column) order.
func CSRMulDense(rowptr []int64, colidx []int32, val []float64, rows int, b *dense.Mat) *dense.Mat {
	out := dense.NewMat(rows, b.Cols)
	for i := 0; i < rows; i++ {
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for p := rowptr[i]; p < rowptr[i+1]; p++ {
			v := val[p]
			brow := b.Data[int(colidx[p])*b.Cols : (int(colidx[p])+1)*b.Cols]
			for c, bv := range brow {
				orow[c] += v * bv
			}
		}
	}
	return out
}

// CSRMulDenseT returns mᵀ·b by the serial column scatter: rows of m in
// ascending order, so output row j accumulates its contributions in
// ascending original-row order — the exact order m.Transpose().MulDense
// reproduces.
func CSRMulDenseT(rowptr []int64, colidx []int32, val []float64, rows, cols int, b *dense.Mat) *dense.Mat {
	out := dense.NewMat(cols, b.Cols)
	for i := 0; i < rows; i++ {
		brow := b.Data[i*b.Cols : (i+1)*b.Cols]
		for p := rowptr[i]; p < rowptr[i+1]; p++ {
			v := val[p]
			orow := out.Data[int(colidx[p])*b.Cols : (int(colidx[p])+1)*b.Cols]
			for c, bv := range brow {
				orow[c] += v * bv
			}
		}
	}
	return out
}

// DenseMulCSR returns b·m for a CSR m as raw arrays. Element (i, j)
// accumulates over b's columns k ascending, entries within row k of m in
// storage order — no skip on zero b values, so NaN/Inf in m propagate
// through zero rows of b.
func DenseMulCSR(b *dense.Mat, rowptr []int64, colidx []int32, val []float64, cols int) *dense.Mat {
	out := dense.NewMat(b.Rows, cols)
	for i := 0; i < b.Rows; i++ {
		brow := b.Data[i*b.Cols : (i+1)*b.Cols]
		orow := out.Data[i*cols : (i+1)*cols]
		for k, bv := range brow {
			for p := rowptr[k]; p < rowptr[k+1]; p++ {
				orow[colidx[p]] += bv * val[p]
			}
		}
	}
	return out
}

// QRThin is the row-major Householder thin QR that dense.QRThin was before
// it became a column-major panel: reflector k is built from column k by
// an i-ascending sum of squares, applied to each later column j as one
// i-ascending dot and one axpy, and thin Q is accumulated by applying the
// reflectors, last first, to every column of I. It walks columns of a
// row-major matrix with At/Set and is slow for exactly that reason; the
// production kernel performs the same per-element arithmetic in the same
// order on contiguous columns and is held to this loop bitwise — Q, R and
// the IEEE corners (a zero column leaves its reflector out, NaN and ±Inf
// spread exactly as far as this loop spreads them). a must have
// Rows >= Cols.
func QRThin(a *dense.Mat) (q, r *dense.Mat) {
	m, n := a.Rows, a.Cols
	work := a.Clone()
	betas := make([]float64, n)
	for k := 0; k < n; k++ {
		normx := 0.0
		for i := k; i < m; i++ {
			v := work.At(i, k)
			normx += v * v
		}
		normx = math.Sqrt(normx)
		if normx == 0 {
			betas[k] = 0
			continue
		}
		alpha := work.At(k, k)
		sign := 1.0
		if alpha < 0 {
			sign = -1.0
		}
		v1 := alpha + sign*normx
		betas[k] = sign * v1 / normx
		for i := k + 1; i < m; i++ {
			work.Set(i, k, work.At(i, k)/v1)
		}
		work.Set(k, k, -sign*normx)
		beta := betas[k]
		for j := k + 1; j < n; j++ {
			s := work.At(k, j)
			for i := k + 1; i < m; i++ {
				s += work.At(i, k) * work.At(i, j)
			}
			s *= beta
			work.Set(k, j, work.At(k, j)-s)
			for i := k + 1; i < m; i++ {
				work.Set(i, j, work.At(i, j)-s*work.At(i, k))
			}
		}
	}
	r = dense.NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, work.At(i, j))
		}
	}
	q = dense.NewMat(m, n)
	for j := 0; j < n; j++ {
		q.Set(j, j, 1)
	}
	for k := n - 1; k >= 0; k-- {
		beta := betas[k]
		if beta == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			s := q.At(k, j)
			for i := k + 1; i < m; i++ {
				s += work.At(i, k) * q.At(i, j)
			}
			s *= beta
			q.Set(k, j, q.At(k, j)-s)
			for i := k + 1; i < m; i++ {
				q.Set(i, j, q.At(i, j)-s*work.At(i, k))
			}
		}
	}
	return q, r
}

// Orthonormalize is dense.Orthonormalize as it stood on top of the
// row-major QRThin: columns whose |r_kk| <= tol·|r_00| are replaced by the
// first coordinate vector that survives two modified Gram-Schmidt passes
// against the other columns, each pass a j-ascending sequence of
// i-ascending dots and axpys.
func Orthonormalize(a *dense.Mat, tol float64) *dense.Mat {
	q, r := QRThin(a)
	if tol <= 0 {
		tol = 1e-12
	}
	r00 := math.Abs(r.At(0, 0))
	if r00 == 0 {
		r00 = 1
	}
	for k := 0; k < r.Rows; k++ {
		if math.Abs(r.At(k, k)) > tol*r00 {
			continue
		}
		col := make([]float64, q.Rows)
		for e := 0; e < q.Rows; e++ {
			for i := range col {
				col[i] = 0
			}
			col[e] = 1
			for pass := 0; pass < 2; pass++ {
				for j := 0; j < q.Cols; j++ {
					if j == k {
						continue
					}
					d := 0.0
					for i := 0; i < q.Rows; i++ {
						d += q.At(i, j) * col[i]
					}
					for i := 0; i < q.Rows; i++ {
						col[i] -= d * q.At(i, j)
					}
				}
			}
			if nrm := dense.Norm2(col); nrm > 1e-8 {
				dense.ScaleVec(1/nrm, col)
				q.SetCol(k, col)
				break
			}
		}
	}
	return q
}

// BitEqual reports whether x and y are identical bit for bit, except
// that any two NaNs compare equal regardless of payload (payload
// propagation through arithmetic is hardware-defined, not part of the
// kernel contract). Unlike a tolerance-0 float compare it distinguishes
// +0 from −0, which is exactly the corner the zero-skip bug hid.
func BitEqual(x, y *dense.Mat) bool {
	_, _, ok := Diff(x, y)
	return ok
}

// Diff returns the first element position where x and y differ under
// BitEqual's equivalence (NaN ≡ NaN, else identical bits), with ok=true
// and (-1, -1) when they are equivalent. A shape mismatch reports
// (-1, -1, false).
func Diff(x, y *dense.Mat) (i, j int, ok bool) {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return -1, -1, false
	}
	for p, v := range x.Data {
		w := y.Data[p]
		if math.IsNaN(v) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(v) != math.Float64bits(w) {
			if x.Cols == 0 {
				return p, 0, false
			}
			return p / x.Cols, p % x.Cols, false
		}
	}
	return -1, -1, true
}
