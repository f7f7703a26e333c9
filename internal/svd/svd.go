// Package svd implements rank-r truncated singular value decomposition of
// sparse matrices, the substrate CSR+'s precomputation stands on
// (Algorithm 1, line 2). MATLAB supplies this as svds; in stdlib-only Go
// it is built here twice over:
//
//   - Randomized subspace iteration (Halko, Martinsson & Tropp 2011):
//     a Gaussian range sketch refined by power iterations, orthonormalised
//     by CholeskyQR2, finished through the k x k Gram matrix of the
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

// Result holds a rank-r truncated SVD A ≈ U diag(S) Vᵀ with U and V
// having orthonormal columns and S sorted descending. U and V hold only
// the rows the driver computed, A's support: row i of U is row RowSupport[i]
// of the full left factor, row i of V row ColSupport[i] of the right one,
// and every row left out is exactly zero.
type Result struct {
	U *dense.Mat
	S []float64
	V *dense.Mat
	// SupportRows x SupportCols is the shape of the matrix the driver
	// worked on: A's non-empty rows and columns, or A's own shape when it
	// was decomposed as given. U has SupportRows rows, V SupportCols.
	SupportRows, SupportCols int
	// RowSupport and ColSupport list, ascending, the rows and the columns
	// of A the driver worked on — the rows of U and of V — when they are a
	// proper subset; nil means every row (every column), in place.
	RowSupport, ColSupport []int32
	// Stages is where the decomposition's wall time went; the five
	// durations sum to the call's.
	Stages Stages
}

// Stages splits a Truncated call's wall time by the layer that spent it.
type Stages struct {
	// Sparse is the passes over the matrix: the A·X and Aᵀ·X products.
	Sparse time.Duration
	// Ortho is orthonormalisation: the CholeskyQR2 passes of the randomized
	// driver, the Krylov reorthogonalisation of the Lanczos one.
	Ortho time.Duration
	// Small is the projected problem: the Gram matrix and its eigensolve
	// (or the bidiagonal's Jacobi SVD) and the products that carry its
	// leading r vectors back to the support's rows.
	Small time.Duration
	// Draw is the Gaussian sketch (or Lanczos start vector): the whole
	// stream for the input's shape, whatever part of it the support keeps.
	// The randomized driver builds the matrix's transpose beside it.
	Draw time.Duration
	// Rest is what is left around the driver: the support scan.
	Rest time.Duration
	// OrthoPasses counts the randomized driver's CholeskyQR passes: two
	// per orthonormalisation, PowerIters + 1 of them, and more for each
	// that had to shift (dense.OrthonormalizePasses) — the sign that a
	// sketch came near CholeskyQR's conditioning limit.
	OrthoPasses int
}

// clock charges the time since its last lap to a stage.
type clock struct {
	Stages
	last time.Time
}

func (c *clock) lap(stage *time.Duration) {
	now := time.Now()
	*stage += now.Sub(c.last)
	c.last = now
}

// Bytes reports the memory footprint of the factors.
func (r *Result) Bytes() int64 {
	return r.U.Bytes() + r.V.Bytes() + int64(len(r.S))*8
}

// Truncated computes the rank-r truncated SVD of the sparse matrix a.
// It returns ErrRank (wrapped) when r < 1 or r exceeds min(rows, cols).
//
// The drivers run on a's support (see restrict): an empty row of a is a
// zero row of every A·X, an empty column a zero row of every Aᵀ·X, and the
// SVD of a zero-padded matrix is the zero-padded SVD of its non-zero block,
// so the dense work — every tall allocation, and the factors returned — is
// sized by the rows and columns that hold entries. The Gaussian vectors
// are still drawn as the full-size streams and cut down to the support, so
// the randomized driver multiplies the numbers it would have multiplied
// against a's entries and its factors are those of the full-size run to
// rounding; a matrix with no empty row or column is decomposed by the same
// arithmetic, bit for bit. Lanczos agrees with its full-size run only as far
// as both have converged: there the start vector's mass on empty columns
// stayed in the Krylov basis.
func Truncated(a *sparse.CSR, r int, opts Options) (*Result, error) {
	rows, cols := a.Dims()
	if r < 1 || r > rows || r > cols {
		return nil, fmt.Errorf("svd: rank %d on %dx%d matrix: %w", r, rows, cols, ErrRank)
	}
	opts = opts.withDefaults()
	ck := &clock{last: time.Now()}
	p := restrict(a, r+opts.Oversample)
	ck.lap(&ck.Rest)
	return p.decompose(r, opts, ck)
}

// decompose runs opts.Method's driver on p: rank-r factors over p's rows
// and columns.
func (p *problem) decompose(r int, opts Options, ck *clock) (*Result, error) {
	var drive func(*problem, int, Options, *clock) (u *dense.Mat, s []float64, v *dense.Mat, err error)
	switch opts.Method {
	case Randomized:
		drive = randomized
	case Lanczos:
		drive = lanczos
	default:
		return nil, fmt.Errorf("svd: unknown method %d", int(opts.Method))
	}
	u, s, v, err := drive(p, r, opts, ck)
	if err != nil {
		return nil, err
	}
	res := &Result{U: u, S: make([]float64, r), V: v, RowSupport: p.rowIdx, ColSupport: p.colIdx}
	copy(res.S, s) // the leading r; a driver that found fewer leaves σ = 0 behind them
	res.SupportRows, res.SupportCols = p.a.Dims()
	res.Stages = ck.Stages
	return res, nil
}

// problem is what a driver decomposes: the input restricted to its support,
// and what it takes to stay the decomposition of the input — the input's
// shape, which sizes the Gaussian streams, and the original index of every
// row and column kept (nil: all of them, in place).
type problem struct {
	a              *sparse.CSR
	rows, cols     int
	rowIdx, colIdx []int32
}

// restrict returns the problem of decomposing a with sketches up to width
// columns wide. A support narrower than the sketch is not restricted to:
// the sketch width is clamped to the matrix's shape, so a narrower matrix
// would get a narrower sketch than a does and the two runs would stop
// multiplying the same numbers. Everything small enough for that — the
// paper's worked example, the golden fixtures — is decomposed as given.
func restrict(a *sparse.CSR, width int) *problem {
	rows, cols := a.Dims()
	p := &problem{a: a, rows: rows, cols: cols}
	s, rowIdx, colIdx := a.Support()
	if nr, nc := s.Dims(); min(nr, nc) >= min(width, rows, cols) {
		p.a, p.rowIdx, p.colIdx = s, rowIdx, colIdx
	}
	return p
}

// gaussian draws an n x m.Cols standard normal matrix from rng, row by row,
// and fills m with its rows keep (all n when keep is nil): m has one row per
// row kept. The whole stream is drawn whatever is kept, so entry (i, j) of
// the full matrix has one value per seed and rng ends in one state.
func gaussian(m *dense.Mat, rng *rand.Rand, n int, keep []int32) *dense.Mat {
	next := 0
	for i := 0; i < n; i++ {
		if keep != nil && (next == len(keep) || int(keep[next]) != i) {
			for j := 0; j < m.Cols; j++ {
				rng.NormFloat64()
			}
			continue
		}
		row := m.Row(next)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		next++
	}
	return m
}

// leading returns the m.Rows x r matrix holding the leading min(r, m.Cols)
// columns of m and zero beyond them: the small factor's vectors that rank r
// keeps, so the products that carry them to the support compute no others.
func leading(m *dense.Mat, r int) *dense.Mat {
	out := dense.NewMat(m.Rows, r)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[:min(r, m.Cols)])
	}
	return out
}

// randomized implements Halko et al.'s prototype: sketch, power-iterate,
// orthonormalise, project, small SVD.
func randomized(p *problem, r int, opts Options, ck *clock) (*dense.Mat, []float64, *dense.Mat, error) {
	a := p.a
	rows, cols := a.Dims()
	k := min(r+opts.Oversample, rows, cols)
	// The range finder owns two sketch-sized panels and every tall matrix
	// in it lives in one of them: a product reads one and overwrites the
	// other (MulDenseInto writes every row, so nothing is zeroed), an
	// orthonormalisation consumes one and returns Q in the other, and
	// either way the step's input is the next step's spare. With U and V
	// below that is four tall allocations a call, where a fresh matrix per
	// step was thirteen — each of them page-faulted in for one use.
	size := max(rows, cols) * k
	spare := make([]float64, size)
	product := func(m *sparse.CSR, x *dense.Mat) *dense.Mat {
		mr, _ := m.Dims()
		out := &dense.Mat{Rows: mr, Cols: k, Data: spare[:mr*k]}
		m.MulDenseInto(out, x)
		spare = x.Data
		return out
	}
	orthonormalize := func(y *dense.Mat) (*dense.Mat, error) {
		q, passes, err := dense.OrthonormalizePasses(y, spare, 0)
		spare = y.Data
		ck.OrthoPasses += passes
		return q, err
	}
	// Aᵀ is built once for the three Aᵀ·X passes below, on a second
	// goroutine while this one draws Ω: both are serial and neither reads
	// the other. at.MulDense sums each output row in ascending original-row
	// order, which is MulDenseT's order on both of its paths, so the bits
	// are MulDenseT's.
	var at *sparse.CSR
	built := make(chan struct{})
	go func() {
		at = a.Transpose()
		close(built)
	}()
	omega := gaussian(&dense.Mat{Rows: cols, Cols: k, Data: make([]float64, size)[:cols*k]},
		rand.New(rand.NewSource(opts.Seed)), p.cols, p.colIdx)
	<-built
	ck.lap(&ck.Draw)
	// Y = A Ω, refined by power iterations with re-orthonormalisation
	// between sparse passes to avoid losing small singular directions.
	y := product(a, omega)
	ck.lap(&ck.Sparse)
	for it := 0; it < opts.PowerIters; it++ {
		q, err := orthonormalize(y)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("svd: randomized power iteration %d: %w", it, err)
		}
		ck.lap(&ck.Ortho)
		y = product(a, product(at, q))
		ck.lap(&ck.Sparse)
	}
	q, err := orthonormalize(y)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("svd: randomized range finder: %w", err)
	}
	ck.lap(&ck.Ortho)
	// B = Qᵀ A, computed as (Aᵀ Q)ᵀ so the sparse pass stays row-major. It
	// is the last step that writes a panel: Q is read again below.
	bt := product(at, q) // cols x k
	ck.lap(&ck.Sparse)
	// Finish through the k x k Gram matrix G = B Bᵀ = btᵀ bt: its
	// eigendecomposition G = Z diag(σ²) Zᵀ gives A ≈ (Q Z) Σ (bt Z Σ⁻¹)ᵀ.
	// One O(n k²) pass plus an O(k³) Jacobi — far cheaper than a Jacobi
	// SVD of the n x k factor at the large ranks Table 3 sweeps — and the
	// products carry only Z's leading r columns: an output entry is one dot
	// over k, so they are the first r columns of the full products, bit for
	// bit.
	gram := dense.Gram(bt)
	evals, z, err := dense.SymEig(gram)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("svd: randomized Gram eigensolve: %w", err)
	}
	s := make([]float64, len(evals))
	for i, ev := range evals {
		if ev > 0 {
			s[i] = math.Sqrt(ev)
		}
	}
	z = leading(z, r)
	u := dense.Mul(q, z)
	v := dense.Mul(bt, z)
	// Normalise V's columns by σ; zero-σ directions carry no mass.
	inv := make([]float64, r)
	for j, sj := range s[:r] {
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
	ck.lap(&ck.Small)
	return u, s, v, nil
}

// lanczos implements Golub–Kahan bidiagonalisation with full
// reorthogonalisation of both Krylov bases.
func lanczos(p *problem, r int, opts Options, ck *clock) (*dense.Mat, []float64, *dense.Mat, error) {
	a := p.a
	rows, cols := a.Dims()
	steps := min(r+opts.Oversample, rows, cols)
	rng := rand.New(rand.NewSource(opts.Seed))

	// Right Krylov basis V (cols x steps), left basis U (rows x steps),
	// bidiagonal alphas (diag) and betas (superdiag).
	vBasis := make([][]float64, 0, steps)
	uBasis := make([][]float64, 0, steps)
	alphas := make([]float64, 0, steps)
	betas := make([]float64, 0, steps)

	v := gaussian(dense.NewMat(cols, 1), rng, p.cols, p.colIdx).Data
	normalise(v)
	u := make([]float64, rows)
	var beta float64
	ck.lap(&ck.Draw)
	for j := 0; j < steps; j++ {
		vBasis = append(vBasis, append([]float64(nil), v...))
		// u_j = A v_j - beta_{j-1} u_{j-1}
		au := a.MulVec(v, nil)
		ck.lap(&ck.Sparse)
		if j > 0 {
			dense.Axpy(-beta, u, au)
		}
		reorthogonalise(au, uBasis)
		alpha := dense.Norm2(au)
		if alpha < 1e-14 {
			// Invariant subspace found: restart with a fresh random
			// direction orthogonal to the basis.
			au = gaussian(dense.NewMat(rows, 1), rng, p.rows, p.rowIdx).Data
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
		ck.lap(&ck.Ortho)
		// v_{j+1} = Aᵀ u_j - alpha_j v_j
		av := a.MulVecT(u, nil)
		ck.lap(&ck.Sparse)
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
		ck.lap(&ck.Ortho)
	}
	ck.lap(&ck.Ortho) // whatever a breakdown exit left unclocked
	// Fewer than r triplets (early breakdown on a low-rank or zero matrix)
	// is a valid answer: the missing directions carry singular value 0 and
	// contribute nothing downstream, and the caller zero-pads them.
	k := len(alphas)
	if k == 0 {
		return dense.NewMat(rows, r), nil, dense.NewMat(cols, r), nil
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
		return nil, nil, nil, fmt.Errorf("svd: lanczos small SVD: %w", err)
	}
	// A ≈ U_k B V_kᵀ = (U_k W) Σ (V_k Z)ᵀ, carried for the leading r
	// triplets (zero columns past the k found).
	uk := basisMat(uBasis, rows, k)
	vk := basisMat(vBasis, cols, k)
	um, vm := dense.Mul(uk, leading(small.U, r)), dense.Mul(vk, leading(small.V, r))
	ck.lap(&ck.Small)
	return um, small.S, vm, nil
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
