package dense

import (
	"fmt"
	"math"
	"sort"
)

// maxJacobiSweeps bounds the Jacobi iteration; convergence is normally
// reached in well under 30 sweeps for the small matrices this package
// targets (k x k with k = rank + oversampling).
const maxJacobiSweeps = 60

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
