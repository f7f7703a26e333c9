package dense

import (
	"errors"
	"fmt"
	"math"

	"csrplus/internal/par"
)

// ErrNotFinite is returned (wrapped) for an input holding NaN or ±Inf, or
// a column whose squared norm overflows.
var ErrNotFinite = errors.New("dense: non-finite entry")

// unitRoundoff is u, half the gap between 1 and the next float64.
const unitRoundoff = 0x1p-53

// Orthonormalize returns a matrix with orthonormal columns spanning the
// column space of a (m x k, m >= k). A column of the result that carries at
// most tol of every column of a (tol <= 0 means 1e-12; a column's norm
// counts within a factor √2) — or that a dependent column left empty — is
// replaced by a coordinate vector orthogonalised against the rest, so the
// result has full column rank and spans each column of a to within 2k·tol.
// a is only read; a NaN or ±Inf in it, or a column past 1e154 whose squared
// norm overflows, is ErrNotFinite.
func Orthonormalize(a *Mat, tol float64) (*Mat, error) {
	return OrthonormalizeInto(a, make([]float64, len(a.Data)), tol)
}

// OrthonormalizeInto is Orthonormalize into the first a.Rows*a.Cols
// elements of panel, which must share no storage with a.
func OrthonormalizeInto(a *Mat, panel []float64, tol float64) (*Mat, error) {
	q, _, err := OrthonormalizePasses(a, panel, tol)
	return q, err
}

// OrthonormalizePasses is OrthonormalizeInto reporting how many CholeskyQR
// passes it ran: 2, or more when it shifted or R was slow to settle.
//
// CholeskyQR2 (Yamamoto et al. 2015): a pass forms G = XᵀX, factors
// G = RᵀR (upper, positive diagonal) and replaces X by X·R⁻¹, a GEMM
// against R's inverse. One pass leaves X orthonormal to O(κ(X)²·u), the
// second to O(u), while κ(X) ≲ u^-½. The first pass scales G to a diagonal
// in [1/2, 2) by powers of two (exact, folded into R⁻¹), so pivots measure
// angles. A pivot at or below s = 11(mk + k(k+1))·u·tr G, the scale of G's
// rounding, or ‖R‖·‖R⁻¹‖ (max entries) above 10⁶, past which the GEMM's
// own rounding grows, refactors G + sI (Fukaya et al. 2020) and two
// unshifted passes follow, or more until R settles near I: shifted
// CholeskyQR3, once a call. From the shift on, X·R⁻¹ is a substitution
// along each row, backward stable however R is conditioned, and a pivot at
// or below k·u·max G_jj drops its column. G's reduction grid is fixed by
// the shape and each row of X·R⁻¹ is one goroutine's, so the bits do not
// depend on the worker count.
func OrthonormalizePasses(a *Mat, panel []float64, tol float64) (q *Mat, passes int, err error) {
	m, k := a.Rows, a.Cols
	if m < k {
		return nil, 0, fmt.Errorf("dense: Orthonormalize %dx%d needs rows >= cols: %w", m, k, ErrShape)
	}
	if tol <= 0 {
		tol = 1e-12
	}
	q = &Mat{Rows: m, Cols: k, Data: panel[:m*k]}
	x, g := a, Gram(a)
	d, dropped, err := equilibrate(g)
	if err != nil {
		return nil, 0, err
	}
	// acc is R so far: a·D = X·acc, the columns of a·D of norm 2^±½. The
	// passes stop at eight, which shifted CholeskyQR3 never nears.
	r, acc, shifted, calm := NewMat(k, k), Eye(k), false, false
	for clean := 0; k > 0 && passes < 8 && (clean < 2 || !calm); passes++ {
		if passes > 0 {
			g, d = Gram(x), nil
		}
		top, trace := 0.0, 0.0 // over every column: a dropped one is zero
		for j := 0; j < k; j++ {
			top, trace = max(top, g.At(j, j)), trace+g.At(j, j)
		}
		shift := 11 * float64(m*k+k*(k+1)) * unitRoundoff * trace
		switch clean++; {
		case shifted:
			cholesky(g, r, 0, float64(k)*unitRoundoff*top, 0, dropped)
		case !cholesky(g, r, 0, math.Inf(-1), shift, dropped) || r.MaxAbs()*invertUpperT(r, dropped, nil).MaxAbs() > 1e6:
			shifted, clean = true, 0
			cholesky(g, r, shift, 0, 0, dropped)
		}
		calm = true // R near I: this pass's input was orthonormal, however its pivots read
		for j := 0; j < k; j++ {
			calm = calm && math.Abs(r.At(j, j)-1) <= 0.5
		}
		acc = Mul(r, acc)
		if shifted {
			solveRows(q, x, r, dropped, d)
		} else {
			mulInverse(q, x, invertUpperT(r, dropped, d))
		}
		x = q
	}
	var bad []int // column l of a·D is Σ_j Q_j·acc[j][l]: row j is what Q_j carries
	for j, drop := range dropped {
		if drop || (&Mat{Rows: 1, Cols: k - j, Data: acc.Row(j)[j:]}).MaxAbs() <= tol {
			bad = append(bad, j)
			q.SetCol(j, make([]float64, m))
		}
	}
	repair(q, bad)
	return q, passes, nil
}

// equilibrate scales g to a diagonal in [1/2, 2) by powers of two, g ← DGD,
// and returns D and the all-zero columns, those with a zero diagonal; a NaN
// or ±Inf there is ErrNotFinite.
func equilibrate(g *Mat) (d []float64, dropped []bool, err error) {
	d, dropped = make([]float64, g.Rows), make([]bool, g.Rows)
	for j := range d {
		switch v := g.At(j, j); {
		case v-v != 0:
			return nil, nil, fmt.Errorf("dense: Orthonormalize: column %d's squared norm is %v: %w", j, v, ErrNotFinite)
		case v > 0:
			_, e := math.Frexp(v)
			d[j] = math.Ldexp(1, -(e >> 1))
		default:
			dropped[j] = true
		}
	}
	for i := range d {
		row := g.Row(i)
		for j := range row {
			row[j] = row[j] * d[i] * d[j] // in this order: d[i]·d[j] can overflow
		}
	}
	return d, dropped, nil
}

// cholesky factors g + shift·I = RᵀR into r from g's upper triangle,
// column by column, and reports false at the first pivot at or below fail.
// A pivot at or below drop drops its column: its row of R becomes e_jᵀ, so
// it enters no later column, and its column keeps its coefficients on the
// ones before it, which is where its content went.
func cholesky(g, r *Mat, shift, drop, fail float64, dropped []bool) bool {
	clear(r.Data)
	for j := 0; j < g.Rows; j++ {
		d := g.At(j, j) + shift
		for i := 0; i < j && !dropped[j]; i++ {
			if !dropped[i] {
				s := g.At(i, j)
				for p := 0; p < i; p++ {
					s -= r.At(p, i) * r.At(p, j)
				}
				r.Set(i, j, s/r.At(i, i))
				d -= r.At(i, j) * r.At(i, j)
			}
		}
		switch {
		case dropped[j] || d <= drop:
			r.Set(j, j, 1)
			dropped[j] = true
		case d <= fail:
			return false
		default:
			r.Set(j, j, math.Sqrt(d))
		}
	}
	return true
}

// invertUpperT returns (D·R⁻¹)ᵀ for upper triangular r (D = I when d is
// nil), zero in each dropped column's row and column: row l, zero past l,
// weights column l of X·R⁻¹ in the dot layout mulTDotLower reads.
func invertUpperT(r *Mat, dropped []bool, d []float64) *Mat {
	k, t := r.Rows, NewMat(r.Rows, r.Rows)
	for l := 0; l < k; l++ {
		if dropped[l] {
			continue
		}
		tl := t.Row(l)
		tl[l] = 1 / r.At(l, l)
		for i := l - 1; i >= 0; i-- {
			if !dropped[i] {
				s := 0.0
				for p := i + 1; p <= l; p++ {
					s += r.At(i, p) * tl[p]
				}
				tl[i] = -s / r.At(i, i)
			}
		}
		for i := range d {
			tl[i] *= d[i]
		}
	}
	return t
}

// mulInverse writes dst = src·tᵀ for t from invertUpperT; dst may be src.
// A worker copies each band of rows aside and multiplies it back with the
// register-tiled kernel, which skips t's zero triangle.
func mulInverse(dst, src, t *Mat) {
	const band = 4 * mcPanel
	m, k := src.Rows, src.Cols
	par.DoAligned(m, band, int64(m)*int64(k)*int64(k)/2, func(lo, hi int) {
		buf := &Mat{Rows: band, Cols: k, Data: make([]float64, band*k)}
		for blo := lo; blo < hi; blo += band {
			bhi := min(blo+band, hi)
			copy(buf.Data, src.Data[blo*k:bhi*k])
			mulTDotLower(&Mat{Rows: bhi - blo, Cols: k, Data: dst.Data[blo*k : bhi*k]}, buf, t, 0, bhi-blo)
		}
	})
}

// solveRows writes dst = src·D·R⁻¹ (D = I when d is nil), zero in dropped
// columns, by substitution along each row, y·R = x·D; dst may be src.
func solveRows(dst, src, r *Mat, dropped []bool, d []float64) {
	par.Do(src.Rows, int64(src.Rows)*int64(r.Rows*r.Rows), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, y := src.Row(i), dst.Row(i)
			for l, xl := range x {
				s := 0.0
				if !dropped[l] {
					s = xl
					if d != nil {
						s *= d[l]
					}
					for p := 0; p < l; p++ {
						s -= y[p] * r.At(p, l)
					}
					s /= r.At(l, l)
				}
				y[l] = s
			}
		}
	})
}

// repair fills the zeroed columns bad of q, each with the first coordinate
// vector that two classical Gram–Schmidt passes (x −= Q·Qᵀx) leave with a
// norm above 1e-8, normalised. A search starts past the last vector taken:
// the span only grows, so no earlier one can pass again.
func repair(q *Mat, bad []int) {
	e := 0
	for _, j := range bad {
		for ; e < q.Rows; e++ {
			x := NewMat(q.Rows, 1)
			x.Data[e] = 1
			for pass := 0; pass < 2; pass++ {
				x = x.Sub(Mul(q, TMul(q, x)))
			}
			if nrm := Norm2(x.Data); nrm > 1e-8 {
				q.SetCol(j, x.Scale(1/nrm).Data)
				e++
				break
			}
		}
	}
}
