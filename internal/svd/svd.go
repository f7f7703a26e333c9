// Package svd implements rank-r truncated singular value decomposition of
// sparse matrices, the substrate CSR+'s precomputation stands on
// (Algorithm 1, line 2). MATLAB supplies this as svds; in stdlib-only Go
// it is built here twice over:
//
//   - Randomized subspace iteration (Halko, Martinsson & Tropp 2011):
//     a Gaussian range sketch refined by power iterations, orthonormalised
//     with Householder QR, finished through the k x k Gram matrix of the
//     projected factor (a Jacobi eigensolve). O(q · r · m) sparse work.
//     This is the default method.
//
//   - Golub–Kahan–Lanczos bidiagonalisation with full reorthogonalisation,
//     finished with a Jacobi SVD of the small projected matrix. Usually
//     more accurate per sparse pass on strongly clustered spectra.
//
// Both methods are deterministic given a seed.
package svd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"csrplus/internal/dense"
	"csrplus/internal/sparse"
)

// Method selects the truncated SVD driver.
type Method int

const (
	// Randomized selects randomized subspace iteration (the default).
	Randomized Method = iota
	// Lanczos selects Golub–Kahan–Lanczos bidiagonalisation.
	Lanczos
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case Randomized:
		return "randomized"
	case Lanczos:
		return "lanczos"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ErrRank is returned (wrapped) for invalid rank requests.
var ErrRank = errors.New("svd: invalid rank")

// Options tunes the truncated SVD drivers.
type Options struct {
	// Method selects the driver; zero value is Randomized.
	Method Method
	// Oversample is the extra sketch width p beyond the target rank
	// (randomized) or extra Lanczos steps. Default 8.
	Oversample int
	// PowerIters is the number of (A Aᵀ) power refinements for the
	// randomized driver. Default 2.
	PowerIters int
	// Seed makes the Gaussian sketch (and Lanczos start vector)
	// reproducible. The zero seed is a valid fixed seed.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Oversample <= 0 {
		o.Oversample = 8
	}
	if o.PowerIters <= 0 {
		o.PowerIters = 2
	}
	return o
}

// Result holds a rank-r truncated SVD A ≈ U diag(S) Vᵀ with U, V of shape
// n x r (orthonormal columns) and S sorted descending.
type Result struct {
	U *dense.Mat
	S []float64
	V *dense.Mat
	// Stages is where the decomposition's wall time went.
	Stages Stages
}

// Stages splits a Truncated call's wall time by the layer that spent it.
// What the three leave out of the call's total is the sketch draw and
// the final truncation copy.
type Stages struct {
	// Sparse is the passes over the matrix: A·X and Aᵀ·X products.
	Sparse time.Duration
	// Ortho is orthonormalisation: the Householder QRs of the randomized
	// driver, the Krylov reorthogonalisation of the Lanczos one.
	Ortho time.Duration
	// Small is the projected problem: the Gram matrix and its
	// eigensolve (or the bidiagonal's Jacobi SVD) and the products that
	// carry its vectors back to n rows.
	Small time.Duration
}

// stopwatch charges the time since its last lap to a stage.
type stopwatch struct{ last time.Time }

func (w *stopwatch) lap(stage *time.Duration) {
	now := time.Now()
	*stage += now.Sub(w.last)
	w.last = now
}

// Bytes reports the memory footprint of the factors.
func (r *Result) Bytes() int64 {
	return r.U.Bytes() + r.V.Bytes() + int64(len(r.S))*8
}

// Truncated computes the rank-r truncated SVD of the sparse matrix a.
// It returns ErrRank (wrapped) when r < 1 or r exceeds min(rows, cols).
func Truncated(a *sparse.CSR, r int, opts Options) (*Result, error) {
	rows, cols := a.Dims()
	if r < 1 || r > rows || r > cols {
		return nil, fmt.Errorf("svd: rank %d on %dx%d matrix: %w", r, rows, cols, ErrRank)
	}
	opts = opts.withDefaults()
	switch opts.Method {
	case Randomized:
		return randomized(a, r, opts)
	case Lanczos:
		return lanczos(a, r, opts)
	default:
		return nil, fmt.Errorf("svd: unknown method %d", int(opts.Method))
	}
}

// randomized implements Halko et al.'s prototype: sketch, power-iterate,
// orthonormalise, project, small SVD.
func randomized(a *sparse.CSR, r int, opts Options) (*Result, error) {
	rows, cols := a.Dims()
	k := r + opts.Oversample
	if k > cols {
		k = cols
	}
	if k > rows {
		k = rows
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	omega := dense.NewMat(cols, k)
	for i := range omega.Data {
		omega.Data[i] = rng.NormFloat64()
	}
	var st Stages
	sw := stopwatch{time.Now()}
	// Y = A Ω, refined by power iterations with re-orthonormalisation
	// between sparse passes to avoid losing small singular directions.
	y := a.MulDense(omega)
	sw.lap(&st.Sparse)
	for it := 0; it < opts.PowerIters; it++ {
		q, err := dense.Orthonormalize(y, 0)
		if err != nil {
			return nil, fmt.Errorf("svd: randomized power iteration %d: %w", it, err)
		}
		sw.lap(&st.Ortho)
		y = a.MulDense(a.MulDenseT(q))
		sw.lap(&st.Sparse)
	}
	q, err := dense.Orthonormalize(y, 0)
	if err != nil {
		return nil, fmt.Errorf("svd: randomized range finder: %w", err)
	}
	sw.lap(&st.Ortho)
	// B = Qᵀ A, computed as (Aᵀ Q)ᵀ so the sparse pass stays row-major.
	bt := a.MulDenseT(q) // cols x k
	sw.lap(&st.Sparse)
	// Finish through the k x k Gram matrix G = B Bᵀ = btᵀ bt: its
	// eigendecomposition G = Z diag(σ²) Zᵀ gives A ≈ (Q Z) Σ (bt Z Σ⁻¹)ᵀ.
	// One O(n k²) pass plus an O(k³) Jacobi — far cheaper than a Jacobi
	// SVD of the n x k factor at the large ranks Table 3 sweeps.
	gram := dense.TMul(bt, bt)
	evals, z, err := dense.SymEig(gram)
	if err != nil {
		return nil, fmt.Errorf("svd: randomized Gram eigensolve: %w", err)
	}
	s := make([]float64, len(evals))
	for i, ev := range evals {
		if ev > 0 {
			s[i] = math.Sqrt(ev)
		}
	}
	u := dense.Mul(q, z)
	v := dense.Mul(bt, z)
	// Normalise V's columns by σ; zero-σ directions carry no mass.
	inv := make([]float64, len(s))
	for j, sj := range s {
		if sj != 0 {
			inv[j] = 1 / sj
		}
	}
	for i := 0; i < v.Rows; i++ {
		row := v.Row(i)
		for j := range row {
			if s[j] == 0 {
				row[j] = 0
			} else {
				row[j] *= inv[j]
			}
		}
	}
	sw.lap(&st.Small)
	res := truncate(u, s, v, r)
	res.Stages = st
	return res, nil
}

// lanczos implements Golub–Kahan bidiagonalisation with full
// reorthogonalisation of both Krylov bases.
func lanczos(a *sparse.CSR, r int, opts Options) (*Result, error) {
	rows, cols := a.Dims()
	steps := r + opts.Oversample
	if steps > rows {
		steps = rows
	}
	if steps > cols {
		steps = cols
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// Right Krylov basis V (cols x steps), left basis U (rows x steps),
	// bidiagonal alphas (diag) and betas (superdiag).
	vBasis := make([][]float64, 0, steps)
	uBasis := make([][]float64, 0, steps)
	alphas := make([]float64, 0, steps)
	betas := make([]float64, 0, steps)

	v := make([]float64, cols)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	normalise(v)
	u := make([]float64, rows)
	var beta float64
	var st Stages
	sw := stopwatch{time.Now()}
	for j := 0; j < steps; j++ {
		vBasis = append(vBasis, append([]float64(nil), v...))
		// u_j = A v_j - beta_{j-1} u_{j-1}
		au := a.MulVec(v, nil)
		sw.lap(&st.Sparse)
		if j > 0 {
			dense.Axpy(-beta, u, au)
		}
		reorthogonalise(au, uBasis)
		alpha := dense.Norm2(au)
		if alpha < 1e-14 {
			// Invariant subspace found: restart with a fresh random
			// direction orthogonal to the basis.
			for i := range au {
				au[i] = rng.NormFloat64()
			}
			reorthogonalise(au, uBasis)
			if n := dense.Norm2(au); n < 1e-14 {
				break
			} else {
				dense.ScaleVec(1/n, au)
			}
			alpha = 0
		} else {
			dense.ScaleVec(1/alpha, au)
		}
		u = au
		uBasis = append(uBasis, append([]float64(nil), u...))
		alphas = append(alphas, alpha)
		sw.lap(&st.Ortho)
		// v_{j+1} = Aᵀ u_j - alpha_j v_j
		av := a.MulVecT(u, nil)
		sw.lap(&st.Sparse)
		dense.Axpy(-alpha, v, av)
		reorthogonalise(av, vBasis)
		beta = dense.Norm2(av)
		if beta < 1e-14 {
			betas = append(betas, 0)
			break
		}
		dense.ScaleVec(1/beta, av)
		v = av
		betas = append(betas, beta)
		sw.lap(&st.Ortho)
	}
	sw.lap(&st.Ortho) // whatever a breakdown exit left unclocked
	k := len(alphas)
	if k == 0 {
		// Zero matrix: all singular values are 0.
		res := &Result{U: dense.NewMat(rows, r), S: make([]float64, r), V: dense.NewMat(cols, r)}
		return res, nil
	}
	// Small bidiagonal B (k x k): B[i][i] = alpha_i, B[i][i+1] = beta_i.
	b := dense.NewMat(k, k)
	for i := 0; i < k; i++ {
		b.Set(i, i, alphas[i])
		if i+1 < k && i < len(betas) {
			b.Set(i, i+1, betas[i])
		}
	}
	small, err := dense.SVDJacobi(b)
	if err != nil {
		return nil, fmt.Errorf("svd: lanczos small SVD: %w", err)
	}
	// A ≈ U_k B V_kᵀ = (U_k W) Σ (V_k Z)ᵀ.
	uk := basisMat(uBasis, rows, k)
	vk := basisMat(vBasis, cols, k)
	um, vm := dense.Mul(uk, small.U), dense.Mul(vk, small.V)
	sw.lap(&st.Small)
	res := truncate(um, small.S, vm, r)
	res.Stages = st
	return res, nil
}

// truncate keeps the leading r singular triplets. When the driver found
// fewer than r triplets (early Lanczos breakdown on a low-rank or zero
// matrix), the remainder is zero-padded: the missing directions carry
// singular value 0 and contribute nothing downstream.
func truncate(u *dense.Mat, s []float64, v *dense.Mat, r int) *Result {
	res := &Result{U: dense.NewMat(u.Rows, r), S: make([]float64, r), V: dense.NewMat(v.Rows, r)}
	k := len(s)
	if k > r {
		k = r
	}
	copy(res.S, s[:k])
	for i := 0; i < u.Rows; i++ {
		copy(res.U.Row(i), u.Row(i)[:k])
	}
	for i := 0; i < v.Rows; i++ {
		copy(res.V.Row(i), v.Row(i)[:k])
	}
	return res
}

// reorthogonalise removes from x its components along every basis vector
// (two classical Gram-Schmidt passes — "twice is enough").
func reorthogonalise(x []float64, basis [][]float64) {
	for pass := 0; pass < 2; pass++ {
		for _, b := range basis {
			dense.Axpy(-dense.Dot(b, x), b, x)
		}
	}
}

func normalise(x []float64) {
	if n := dense.Norm2(x); n > 0 {
		dense.ScaleVec(1/n, x)
	}
}

func basisMat(basis [][]float64, n, k int) *dense.Mat {
	m := dense.NewMat(n, k)
	if len(basis) < k {
		k = len(basis)
	}
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j, b := range basis[:k] {
			row[j] = b[i]
		}
	}
	return m
}
