package dense

import (
	"fmt"
	"math"
	"sort"
)

// maxJacobiSweeps bounds both Jacobi iterations; convergence is normally
// reached in well under 30 sweeps for the small matrices this package
// targets (k x k with k = rank + oversampling).
const maxJacobiSweeps = 60

// SVDResult holds a (thin) singular value decomposition A = U * diag(S) * Vᵀ
// with U (m x k), S (k), V (n x k), singular values sorted descending.
type SVDResult struct {
	U *Mat
	S []float64
	V *Mat
}

// SVDJacobi computes the thin SVD of an m x n matrix with m >= n using
// one-sided Jacobi rotations on the columns of A. It is O(m n² · sweeps)
// and numerically robust — the standard choice for the small dense factor
// produced by randomized range finding, standing in for MATLAB's svd(B, 0).
//
// Columns whose singular value underflows below ulp-scale are returned with
// zero U columns; callers that need a full orthonormal U must
// re-orthonormalise.
//
// The rotations walk columns of the row-major matrix, a stride that costs
// nothing on the small factors it is meant for. The truncated SVD finishes
// through a Gram eigensolve instead; this is the full-SVD reference its
// tests hold it to.
func SVDJacobi(a *Mat) (*SVDResult, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("dense: SVDJacobi %dx%d needs rows >= cols (transpose first): %w", m, n, ErrShape)
	}
	w := a.Clone() // rotated in place; ends as U * diag(S)
	v := Eye(n)
	// Column squared-norms cache, updated after each rotation.
	sq := make([]float64, n)
	colDot := func(i, j int) float64 {
		s := 0.0
		for r := 0; r < m; r++ {
			s += w.Data[r*n+i] * w.Data[r*n+j]
		}
		return s
	}
	for i := 0; i < n; i++ {
		sq[i] = colDot(i, i)
	}
	total := 0.0
	for _, s := range sq {
		total += s
	}
	tol := 1e-14 * total
	if tol == 0 {
		tol = 1e-300
	}
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		rotated := false
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				g := colDot(i, j)
				if math.Abs(g) <= 1e-15*math.Sqrt(sq[i]*sq[j])+tol*1e-4 {
					continue
				}
				rotated = true
				// Jacobi rotation annihilating the (i, j) off-diagonal of
				// the implicit Gram matrix.
				zeta := (sq[j] - sq[i]) / (2 * g)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				cs := 1 / math.Sqrt(1+t*t)
				sn := cs * t
				for r := 0; r < m; r++ {
					wi, wj := w.Data[r*n+i], w.Data[r*n+j]
					w.Data[r*n+i] = cs*wi - sn*wj
					w.Data[r*n+j] = sn*wi + cs*wj
				}
				for r := 0; r < n; r++ {
					vi, vj := v.Data[r*n+i], v.Data[r*n+j]
					v.Data[r*n+i] = cs*vi - sn*vj
					v.Data[r*n+j] = sn*vi + cs*vj
				}
				si, sj := sq[i], sq[j]
				sq[i] = cs*cs*si - 2*sn*cs*g + sn*sn*sj
				sq[j] = sn*sn*si + 2*sn*cs*g + cs*cs*sj
			}
		}
		if !rotated {
			break
		}
	}
	// Extract singular values and normalise U's columns. σ is the norm of
	// the rotated column itself: the cached squared norms drift by rounding
	// in every update, eps·‖A‖² in absolute terms, so a singular value read
	// from them is only good to √eps·‖A‖ — a rank-deficient matrix's zero
	// would come back near 1e-8 of its largest.
	type col struct {
		sigma float64
		idx   int
	}
	cols := make([]col, n)
	for i := 0; i < n; i++ {
		cols[i] = col{math.Sqrt(colDot(i, i)), i}
	}
	sort.SliceStable(cols, func(a, b int) bool { return cols[a].sigma > cols[b].sigma })
	res := &SVDResult{U: NewMat(m, n), S: make([]float64, n), V: NewMat(n, n)}
	for k, c := range cols {
		res.S[k] = c.sigma
		if c.sigma > 0 {
			inv := 1 / c.sigma
			for r := 0; r < m; r++ {
				res.U.Data[r*n+k] = w.Data[r*n+c.idx] * inv
			}
		}
		for r := 0; r < n; r++ {
			res.V.Data[r*n+k] = v.Data[r*n+c.idx]
		}
	}
	return res, nil
}

// SymEig computes the eigendecomposition of a symmetric n x n matrix using
// the cyclic Jacobi eigenvalue method: a = V diag(w) Vᵀ with eigenvalues
// sorted descending. Symmetry is assumed, not checked; only the given
// matrix's symmetric part effectively contributes.
func SymEig(a *Mat) (w []float64, v *Mat, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("dense: SymEig %dx%d: %w", a.Rows, a.Cols, ErrShape)
	}
	n := a.Rows
	m := a.Clone()
	// Symmetrise defensively so rounding in callers cannot break convergence.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, s)
			m.Set(j, i, s)
		}
	}
	v = Eye(n)
	for sweep := 0; sweep < maxJacobiSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < 1e-28*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				theta := (m.At(q, q) - m.At(p, p)) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(1+theta*theta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for k := 0; k < n; k++ {
					mkp, mkq := m.At(k, p), m.At(k, q)
					m.Set(k, p, c*mkp-s*mkq)
					m.Set(k, q, s*mkp+c*mkq)
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m.At(p, k), m.At(q, k)
					m.Set(p, k, c*mpk-s*mqk)
					m.Set(q, k, s*mpk+c*mqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	w = make([]float64, n)
	idx := make([]int, n)
	for i := range w {
		w[i] = m.At(i, i)
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return w[idx[a]] > w[idx[b]] })
	ws := make([]float64, n)
	vs := NewMat(n, n)
	for k, i := range idx {
		ws[k] = w[i]
		for r := 0; r < n; r++ {
			vs.Set(r, k, v.At(r, i))
		}
	}
	return ws, vs, nil
}
