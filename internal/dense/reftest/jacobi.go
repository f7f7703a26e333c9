package reftest

import (
	"fmt"
	"math"
	"sort"

	"csrplus/internal/dense"
)

// maxSVDSweeps bounds SVDJacobi's rotation sweeps; convergence is normally
// reached in well under 30 for the small matrices it is meant for.
const maxSVDSweeps = 60

// SVDResult holds a (thin) singular value decomposition A = U * diag(S) * Vᵀ
// with U (m x k), S (k), V (n x k), singular values sorted descending.
type SVDResult struct {
	U *dense.Mat
	S []float64
	V *dense.Mat
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
// tests hold it to, and nothing served calls it.
func SVDJacobi(a *dense.Mat) (*SVDResult, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("reftest: SVDJacobi %dx%d needs rows >= cols (transpose first): %w", m, n, dense.ErrShape)
	}
	w := a.Clone() // rotated in place; ends as U * diag(S)
	v := dense.Eye(n)
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
	for sweep := 0; sweep < maxSVDSweeps; sweep++ {
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
	res := &SVDResult{U: dense.NewMat(m, n), S: make([]float64, n), V: dense.NewMat(n, n)}
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
