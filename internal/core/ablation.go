package core

// ablation.go implements deliberately de-optimised variants of CSR+'s
// subspace solve and query phase, so the contribution of each of the
// paper's §3.2 optimisation stages can be measured in isolation
// (bench/ablation.go drives them; see DESIGN.md §6):
//
//   - SolverSquaring      — Algorithm 1 as published (repeated squaring).
//   - SolverPlain         — drops the repeated-squaring trick: the plain
//     recurrence P ← cHPHᵀ + I runs for ⌈log_c ε⌉ iterations instead of
//     ⌈log₂ log_c ε⌉ squarings.
//   - SolverExplicitLambda — drops Theorem 3.4: Λ is materialised as the
//     r² x r² matrix (Σ⊗Σ)(I − c·H⊗H)⁻¹ and applied to vec(I_r), costing
//     O(r⁶) time and O(r⁴) memory where the paper's route costs O(r³).
//
// The third stage short of full CSR-NI (explicit n²-sized tensors) is
// already measured by the CSR-NI baseline itself.

import (
	"fmt"
	"math"

	"csrplus/internal/dense"
)

// SubspaceSolver selects how the r x r fixed point is solved.
type SubspaceSolver int

const (
	// SolverSquaring is the paper's repeated-squaring loop (default).
	SolverSquaring SubspaceSolver = iota
	// SolverPlain iterates the recurrence without squaring.
	SolverPlain
	// SolverExplicitLambda materialises Λ in the r² x r² space.
	SolverExplicitLambda
)

// String names the solver for reports.
func (s SubspaceSolver) String() string {
	switch s {
	case SolverSquaring:
		return "squaring"
	case SolverPlain:
		return "plain-iteration"
	case SolverExplicitLambda:
		return "explicit-lambda"
	default:
		return fmt.Sprintf("SubspaceSolver(%d)", int(s))
	}
}

// SolveSubspacePlain solves P = cHPHᵀ + I_r by the plain fixed-point
// recurrence, running ⌈log_c ε⌉ iterations. Same divergence guard as the
// squaring solver.
func SolveSubspacePlain(u *dense.Mat, s []float64, v *dense.Mat, c, eps float64) (*dense.Mat, int, error) {
	r := len(s)
	h := dense.TMul(v, u)
	for i := 0; i < r; i++ {
		row := h.Row(i)
		for j := 0; j < r; j++ {
			row[j] *= s[j]
		}
	}
	iters := int(math.Ceil(math.Log(eps) / math.Log(c)))
	if iters < 1 {
		iters = 1
	}
	limit := 1e6 / (1 - c)
	p := dense.Eye(r)
	for k := 0; k < iters; k++ {
		hp := dense.Mul(h, p)
		next := dense.MulT(hp, h).Scale(c).AddEye(1)
		p = next
		if p.HasNaN() || p.MaxAbs() > limit {
			return nil, k + 1, fmt.Errorf("core: plain iteration %d ‖P‖=%g: %w", k+1, p.MaxAbs(), ErrDiverged)
		}
	}
	return p, iters, nil
}

// SolveSubspaceLambda computes P through the explicit Λ route of
// Theorem 3.3 *without* Theorem 3.4's redundancy elimination:
// Λ = (Σ⊗Σ)(I_{r²} − c·H⊗H)⁻¹ is materialised and applied to vec(I_r),
// and P is recovered from vec(ΣPΣ) = Λ·vec(I_r).
func SolveSubspaceLambda(u *dense.Mat, s []float64, v *dense.Mat, c float64) (*dense.Mat, error) {
	r := len(s)
	h := dense.TMul(v, u)
	for i := 0; i < r; i++ {
		row := h.Row(i)
		for j := 0; j < r; j++ {
			row[j] *= s[j]
		}
	}
	// (I − c·H⊗H)⁻¹, the r² x r² inversion Theorem 3.4 avoids.
	hh := dense.Kron(h, h).Scale(-c).AddEye(1)
	inv, err := dense.Inverse(hh)
	if err != nil {
		return nil, fmt.Errorf("core: explicit-lambda inversion: %w", err)
	}
	// (I − c·H⊗H)·vec(P) = vec(I_r), so vec(P) = inv·vec(I_r); the Σ
	// scalings of Λ = (Σ⊗Σ)·inv and of P = Σ⁻¹(ΣPΣ)Σ⁻¹ cancel exactly —
	// the variant's point is the O(r⁶) inversion cost above, not extra
	// arithmetic here.
	return dense.Unvec(dense.MulVec(inv, dense.VecEye(r)), r, r), nil
}

// QueryDense answers a multi-source query the un-optimised way, without
// Theorem 3.5: the full n x n similarity matrix S = I + c·F·Fᵀ is
// materialised and the queried columns sliced out. O(n²r) time and O(n²)
// memory — the cost the paper's fourth stage eliminates. Ablation use
// only; the memory guard must be consulted before calling it on anything
// large.
func (ix *Index) QueryDense(queries []int) (*dense.Mat, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("core: empty query set: %w", ErrParams)
	}
	for _, q := range queries {
		if q < 0 || q >= ix.n {
			return nil, fmt.Errorf("core: node %d not in [0, %d): %w", q, ix.n, ErrQuery)
		}
	}
	if ix.Tier() != dense.F64 {
		// The ablation baseline exists to measure the exact algorithm's
		// cost; a lossy tier would measure something else entirely.
		return nil, fmt.Errorf("core: QueryDense requires an exact (f64) index, have %v: %w", ix.Tier(), ErrParams)
	}
	f := ix.denseF64()
	full := dense.MulT(f, f).Scale(ix.c).AddEye(1)
	out := dense.NewMat(ix.n, len(queries))
	for j, q := range queries {
		for i := 0; i < ix.n; i++ {
			out.Set(i, j, full.At(i, q))
		}
	}
	return out, nil
}
