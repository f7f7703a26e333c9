package baseline

import (
	"fmt"

	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/svd"
)

// NI is CSR-NI, Li et al.'s low-rank method [4] — the approach CSR+
// optimises away. It is implemented faithfully, *including its
// deficiencies* (§3.1 of the paper): the tensor products U⊗U and V⊗V are
// explicitly materialised (O(n²r²) memory) and the r²xr² system matrix is
// formed through the O(r⁴n²)-time product (V⊗V)ᵀ(U⊗U). The precompute
// phase builds Λ of Eq. (6b); the query phase evaluates Eq. (6a).
//
// Accuracy is identical to CSR+ at the same rank (the paper's §4.2.3
// "lossless" claim), which the tests verify.
type NI struct {
	cfg Config
	n   int
	uu  *dense.Mat // U⊗U, n² x r²
	vv  *dense.Mat // V⊗V, n² x r²
	lam *dense.Mat // Λ, r² x r²
	c   float64
}

// NewNI returns an unprecomputed NI runner.
func NewNI(cfg Config) *NI { return &NI{cfg: cfg.WithDefaults()} }

// Name implements Runner.
func (a *NI) Name() string { return "CSR-NI" }

// EstimateBytes implements Runner: the two materialised n²xr² tensors
// dominate everything else.
func (a *NI) EstimateBytes(n int, m int64, q int) int64 {
	r := int64(a.cfg.Rank)
	n64 := int64(n)
	tensors := 2 * n64 * n64 * r * r * 8
	lambda := 3 * r * r * r * r * 8 // Λ plus inversion scratch
	query := int64(q)*n64*8 + n64*int64(q)*8
	return tensors + lambda + query + csrBytes(n, m)
}

// EstimateFlops implements Runner: the O(r⁴n²) product (V⊗V)ᵀ(U⊗U)
// dominates; queries read n·r² tensor entries per query column.
func (a *NI) EstimateFlops(n int, m int64, q int) int64 {
	r := int64(a.cfg.Rank)
	n64 := int64(n)
	return r*r*r*r*n64*n64 + 2*n64*n64*r*r + n64*r*r*int64(q)
}

// Precompute implements Runner: Eq. (6b) with explicit tensor products.
func (a *NI) Precompute(g *graph.Graph) error {
	q, err := g.Transition()
	if err != nil {
		return fmt.Errorf("baseline: NI: %w", err)
	}
	track := a.cfg.Tracker
	track.Alloc("precompute/Q", q.Bytes())
	a.n = g.N()
	a.c = a.cfg.Damping
	fac, err := svd.Truncated(q, a.cfg.Rank, a.cfg.SVD)
	if err != nil {
		return fmt.Errorf("baseline: NI: truncated SVD: %w", err)
	}
	// Same operator convention as core: the method works on M = Qᵀ, so
	// with Q ≈ UΣVᵀ the roles swap — um = V, vm = U. The factors come on
	// Q's support; the tensors are indexed by node, so they go to n rows.
	um, vm := allRows(fac.V, fac.ColSupport, a.n), allRows(fac.U, fac.RowSupport, a.n)
	track.Alloc("precompute/USV", um.Bytes()+vm.Bytes()+int64(len(fac.S))*8)

	// The deliberate inefficiency: materialise both tensor products.
	a.uu = dense.Kron(um, um)
	track.Alloc("precompute/UkronU", a.uu.Bytes())
	a.vv = dense.Kron(vm, vm)
	track.Alloc("precompute/VkronV", a.vv.Bytes())

	// (V⊗V)ᵀ (U⊗U): r² x r² through an n²-long contraction — O(r⁴n²).
	vtu := dense.TMul(a.vv, a.uu)
	track.Alloc("precompute/VtU", vtu.Bytes())

	// Λ = ((Σ⊗Σ)⁻¹ − c·(V⊗V)ᵀ(U⊗U))⁻¹.
	r := a.cfg.Rank
	sys := vtu.Clone().Scale(-a.c)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			d := fac.S[i] * fac.S[j]
			idx := i*r + j
			if d == 0 {
				// A zero singular value makes (Σ⊗Σ) singular; drop the
				// direction by pinning its row to identity (it carries no
				// similarity mass).
				for k := 0; k < r*r; k++ {
					sys.Set(idx, k, 0)
				}
				sys.Set(idx, idx, 1)
				continue
			}
			sys.Set(idx, idx, sys.At(idx, idx)+1/d)
		}
	}
	lam, err := dense.Inverse(sys)
	if err != nil {
		return fmt.Errorf("baseline: NI: inverting %dx%d system: %w", r*r, r*r, err)
	}
	a.lam = lam
	track.Alloc("precompute/Lambda", lam.Bytes())
	return nil
}

// allRows returns m's rows at the rows ids name of an n-row matrix that is
// zero everywhere else; nil ids means m already has every row.
func allRows(m *dense.Mat, ids []int32, n int) *dense.Mat {
	if ids == nil {
		return m
	}
	out := dense.NewMat(n, m.Cols)
	for i, id := range ids {
		copy(out.Row(int(id)), m.Row(i))
	}
	return out
}

// Query implements Runner: Eq. (6a), reading the materialised tensors.
func (a *NI) Query(queries []int) (*dense.Mat, error) {
	if a.lam == nil {
		return nil, ErrNotPrecomputed
	}
	if err := validateQueries(queries, a.n); err != nil {
		return nil, err
	}
	n, r2 := a.n, a.lam.Rows
	// x = (V⊗V)ᵀ vec(I_n): vec(I) has ones at positions i·n+i, so x sums
	// the corresponding rows of the materialised V⊗V.
	x := make([]float64, r2)
	for i := 0; i < n; i++ {
		row := a.vv.Row(i*n + i)
		for k, v := range row {
			x[k] += v
		}
	}
	y := dense.MulVec(a.lam, x) // Λ x, r² long
	// vec(S) = vec(I) + c·(U⊗U)·y. Only the queried columns are read:
	// column q of S lives at vec positions q·n + i.
	out := dense.NewMat(n, len(queries))
	a.cfg.Tracker.Alloc("query/S", out.Bytes())
	for j, q := range queries {
		for i := 0; i < n; i++ {
			row := a.uu.Row(q*n + i)
			s := 0.0
			for k, v := range row {
				s += v * y[k]
			}
			if i == q {
				s += 1 / a.c
			}
			out.Set(i, j, a.c*s)
		}
	}
	return out, nil
}
