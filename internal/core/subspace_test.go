package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/svd"
)

// The two references below solve the same r x r fixed point as
// SolveSubspace, each without one of the paper's §3.2 optimisations; they
// hold it to its answer. EXPERIMENTS.md records what each cost on FB.

// subspaceH forms H₀ = VᵀUΣ, as SolveSubspace does.
func subspaceH(u *dense.Mat, s []float64, v *dense.Mat) *dense.Mat {
	h := dense.TMul(v, u)
	for i := 0; i < len(s); i++ {
		row := h.Row(i)
		for j := range s {
			row[j] *= s[j]
		}
	}
	return h
}

// solveSubspacePlain solves P = cHPHᵀ + I_r without repeated squaring: the
// recurrence runs ⌈log_c ε⌉ times instead of ⌈log₂ log_c ε⌉. Same
// divergence guard as SolveSubspace.
func solveSubspacePlain(u *dense.Mat, s []float64, v *dense.Mat, c, eps float64) (*dense.Mat, error) {
	h := subspaceH(u, s, v)
	iters := max(int(math.Ceil(math.Log(eps)/math.Log(c))), 1)
	limit := 1e6 / (1 - c)
	p := dense.Eye(len(s))
	for k := 0; k < iters; k++ {
		p = dense.MulT(dense.Mul(h, p), h).Scale(c).AddEye(1)
		if p.HasNaN() || p.MaxAbs() > limit {
			return nil, fmt.Errorf("core: plain iteration %d ‖P‖=%g: %w", k+1, p.MaxAbs(), ErrDiverged)
		}
	}
	return p, nil
}

// solveSubspaceLambda solves it without Theorem 3.4: the r² x r² system
// (I − c·H⊗H)·vec(P) = vec(I_r) of Theorem 3.3 is inverted outright, O(r⁶)
// time and O(r⁴) memory. Λ = (Σ⊗Σ)·(I − c·H⊗H)⁻¹ and P = Σ⁻¹(ΣPΣ)Σ⁻¹
// cancel their Σ scalings exactly, so P is read off the inverse.
func solveSubspaceLambda(u *dense.Mat, s []float64, v *dense.Mat, c float64) (*dense.Mat, error) {
	r := len(s)
	h := subspaceH(u, s, v)
	inv, err := dense.Inverse(dense.Kron(h, h).Scale(-c).AddEye(1))
	if err != nil {
		return nil, fmt.Errorf("core: explicit-lambda inversion: %w", err)
	}
	// vec stacks columns: vec(I_r) is 1 at j·r+j, and P[i, j] is vec(P)[j·r+i].
	eye := make([]float64, r*r)
	for j := 0; j < r; j++ {
		eye[j*r+j] = 1
	}
	vp := dense.MulVec(inv, eye)
	p := dense.NewMat(r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			p.Set(i, j, vp[j*r+i])
		}
	}
	return p, nil
}

// alignedFactors replays Precompute up to its subspace solve and returns
// the factors the solve sees — U and V on the rows both hold — and σ.
func alignedFactors(t *testing.T, g *graph.Graph, opts Options) (u *dense.Mat, s []float64, v *dense.Mat) {
	t.Helper()
	opts = opts.withDefaults()
	q, qrows, qcols, err := g.SupportTransition()
	if err != nil {
		t.Fatal(err)
	}
	fac, err := svd.TruncatedSupport(q, g.N(), g.N(), qrows, qcols, opts.Rank, opts.SVD)
	if err != nil {
		t.Fatal(err)
	}
	u, v = fac.V, fac.U
	if fac.ColSupport != nil || fac.RowSupport != nil {
		iu, iv := commonRows(fac.ColSupport, fac.RowSupport, g.N())
		u, v = gatherRows(fac.V, iu, nil), gatherRows(fac.U, iv, nil)
	}
	return u, fac.S, v
}

// TestSubspaceReferencesAgree: on the factors Precompute itself solves
// over, repeated squaring, the plain recurrence and the explicit-Λ inverse
// give the same P within the series truncation — the optimisations are
// faster, never different.
func TestSubspaceReferencesAgree(t *testing.T) {
	er, err := graph.ErdosRenyi(40, 200, 70)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		g    *graph.Graph
		opts Options
	}{
		"ER":    {er, Options{Rank: 6, Eps: 1e-9, SVD: svd.Options{Seed: 5}}},
		"paper": {paperGraph(t), Options{Rank: 3, Eps: 1e-9}},
	} {
		ix, err := Precompute(tc.g, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		u, s, v := alignedFactors(t, tc.g, tc.opts)
		if fmt.Sprint(s) != fmt.Sprint(ix.SingularValues()) {
			t.Fatalf("%s: replayed σ %v, Precompute's %v", name, s, ix.SingularValues())
		}
		c := DefaultDamping
		squared, iters, err := SolveSubspace(u, s, v, c, tc.opts.Eps)
		if err != nil {
			t.Fatal(err)
		}
		if iters != ix.Iterations() {
			t.Fatalf("%s: %d squaring steps, Precompute took %d", name, iters, ix.Iterations())
		}
		plain, err := solveSubspacePlain(u, s, v, c, tc.opts.Eps)
		if err != nil {
			t.Fatal(err)
		}
		lambda, err := solveSubspaceLambda(u, s, v, c)
		if err != nil {
			t.Fatal(err)
		}
		for ref, p := range map[string]*dense.Mat{"plain": plain, "explicit-lambda": lambda} {
			if d := squared.Sub(p).MaxAbs(); !(d <= 1e-6) {
				t.Fatalf("%s: %s P deviates from squaring's by %g", name, ref, d)
			}
		}
	}
}

func TestPlainSolverDivergenceGuard(t *testing.T) {
	u := dense.Eye(2)
	v := dense.Eye(2)
	s := []float64{40, 40}
	if _, err := solveSubspacePlain(u, s, v, 0.6, 1e-5); !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}
