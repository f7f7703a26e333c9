// Package svd implements rank-r truncated singular value decomposition of
// sparse matrices, the substrate CSR+'s precomputation stands on
// (Algorithm 1, line 2). MATLAB supplies this as svds; in stdlib-only Go
// it is built here twice over:
//
//   - Randomized subspace iteration (Halko, Martinsson & Tropp 2011):
//     a Gaussian range sketch — one keyed row per column, drawn only for
//     the columns that hold entries — refined by power iterations, orthonormalised
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
	"math/rand/v2"
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
	// Seed keys the Gaussian sketch (and the Lanczos start and restart
	// vectors): the row for column j is drawn from the stream keyed by
	// (Seed, j), so it is the same whatever the rest of the matrix holds.
	// The zero seed is a valid fixed seed.
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
// and every row left out is exactly zero. U and V may sit at the head of
// the driver's larger work buffers: what lies past len(Data), up to
// cap(Data), is dead memory the caller may reuse.
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
	// Sparse is the passes over the matrix: the A·X and Aᵀ·X products,
	// with the randomized driver's set-up for them — its two panels and
	// the transpose of A that it waits for.
	Sparse time.Duration
	// Ortho is orthonormalisation: the CholeskyQR2 passes of the randomized
	// driver, the Krylov reorthogonalisation of the Lanczos one.
	Ortho time.Duration
	// Small is the projected problem: the Gram matrix and its eigensolve
	// (or the bidiagonal's Jacobi SVD) and the products that carry its
	// leading r vectors back to the support's rows.
	Small time.Duration
	// Draw is the Gaussian sketch (or Lanczos start vector): one keyed row
	// per support column and nothing else (see keyed). The randomized
	// driver builds the matrix's transpose on a second goroutine meanwhile;
	// whatever of that the draw does not hide is waited for in Sparse.
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
// so the dense work — every tall allocation, the Gaussian draw, and the
// factors returned — is sized by the rows and columns that hold entries.
// Each Gaussian row is keyed by its column's id (see keyed), so the
// randomized driver multiplies the numbers the full-size run multiplies
// against a's entries and its factors are that run's to rounding; a matrix
// with no empty row or column is decomposed by the same arithmetic, bit for
// bit. Lanczos agrees with its full-size run only as far as both have
// converged: there the start vector's mass on empty columns stayed in the
// Krylov basis.
func Truncated(a *sparse.CSR, r int, opts Options) (*Result, error) {
	start := time.Now()
	rows, cols := a.Dims()
	s, rowIdx, colIdx := a.Support()
	return truncated(s, rows, cols, rowIdx, colIdx, r, opts, start)
}

// TruncatedSupport is Truncated of the rows x cols matrix whose support
// block s is, given as sparse.CSR.Support returns it — s, and the row and
// column ids its rows and columns stand for (nil: all of them, in place) —
// for a caller that built the block without the matrix. The result is
// Truncated's on that matrix, bit for bit.
func TruncatedSupport(s *sparse.CSR, rows, cols int, rowIdx, colIdx []int32, r int, opts Options) (*Result, error) {
	return truncated(s, rows, cols, rowIdx, colIdx, r, opts, time.Now())
}

// truncated is both entry points past the support scan, clocked from start.
func truncated(s *sparse.CSR, rows, cols int, rowIdx, colIdx []int32, r int, opts Options, start time.Time) (*Result, error) {
	if r < 1 || r > rows || r > cols {
		return nil, fmt.Errorf("svd: rank %d on %dx%d matrix: %w", r, rows, cols, ErrRank)
	}
	opts = opts.withDefaults()
	ck := &clock{last: start}
	p := restrict(s, rows, cols, rowIdx, colIdx, r+opts.Oversample)
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
// shape, and the original index of every row and column kept (nil: all of
// them, in place), which keys each one's Gaussian draws.
type problem struct {
	a              *sparse.CSR
	rows, cols     int
	rowIdx, colIdx []int32
}

// restrict returns the problem of decomposing the rows x cols matrix whose
// support block is s (rowIdx, colIdx: sparse.CSR.Support's ids) with
// sketches up to width columns wide. A support narrower than the sketch is
// not restricted to: the sketch width is clamped to the matrix's shape, so
// a narrower matrix would get a narrower sketch than the whole one does and
// the two runs would stop multiplying the same numbers. Everything small
// enough for that — the paper's worked example, the golden fixtures — is
// decomposed as given, s embedded back into its shape.
func restrict(s *sparse.CSR, rows, cols int, rowIdx, colIdx []int32, width int) *problem {
	p := &problem{a: s, rows: rows, cols: cols, rowIdx: rowIdx, colIdx: colIdx}
	if nr, nc := s.Dims(); min(nr, nc) < min(width, rows, cols) {
		p.a, p.rowIdx, p.colIdx = s.Embed(rows, cols, rowIdx, colIdx), nil, nil
	}
	return p
}

// keyed fills m with standard normals, one row per id: row i holds the
// first m.Cols values of the stream keyed by (seed, id, stream), where the
// id is keep[i], or i when keep is nil. The key seeds a PCG generator —
// the seed its high word, the id its low word's low 32 bits, the stream
// the rest — whose NormFloat64 values fill the row. A row is a function of
// its key alone: not of the matrix's shape, of which other ids are kept,
// or of the order the rows are drawn in. So a restricted problem and the
// matrix as given draw the same row for a column, a column keeps its row
// when entries come or go elsewhere, and only the support is drawn.
// Stream 0 is the sketch (the Lanczos start vector is its first column);
// the Lanczos driver keys a restart at step j by stream j + 1.
func keyed(m *dense.Mat, seed int64, stream uint32, keep []int32) *dense.Mat {
	var src rand.PCG
	rng := rand.New(&src)
	for i := 0; i < m.Rows; i++ {
		id := uint32(i)
		if keep != nil {
			id = uint32(keep[i])
		}
		src.Seed(uint64(seed), uint64(stream)<<32|uint64(id))
		row := m.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
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
	// either way the step's input is the next step's spare; U and V are
	// made in them too. That is two tall allocations a call, where a fresh
	// matrix per step was thirteen — each of them page-faulted in for one
	// use.
	size := max(rows, cols) * k
	spare := make([]float64, size)
	omega := &dense.Mat{Rows: cols, Cols: k, Data: make([]float64, size)[:cols*k]}
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
	// are MulDenseT's. The draw's clock runs over the draw alone: the
	// panels and the transpose's start before it are the sparse passes'
	// set-up, and so is the wait for Aᵀ after it — on one core the whole
	// transpose runs inside that wait.
	var at *sparse.CSR
	built := make(chan struct{})
	go func() {
		at = a.Transpose()
		close(built)
	}()
	ck.lap(&ck.Sparse)
	keyed(omega, opts.Seed, 0, p.colIdx)
	ck.lap(&ck.Draw)
	<-built
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
	// U = Q·Z and V = Bᵀ·Z are made in the panels Q and Bᵀ hold, each row
	// over the row it is computed from (dense.MulInPlace: Mul's bits), with
	// Aᵀ's values — dead past the last sparse pass — for the blocks that
	// cannot go straight into place.
	z = leading(z, r)
	u := dense.MulInPlace(q, z, at.Val)
	v := dense.MulInPlace(bt, z, at.Val)
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

	// Right Krylov basis V (cols x steps), left basis U (rows x steps),
	// bidiagonal alphas (diag) and betas (superdiag).
	vBasis := make([][]float64, 0, steps)
	uBasis := make([][]float64, 0, steps)
	alphas := make([]float64, 0, steps)
	betas := make([]float64, 0, steps)

	v := keyed(dense.NewMat(cols, 1), opts.Seed, 0, p.colIdx).Data
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
			// direction orthogonal to the basis, keyed by the step.
			au = keyed(dense.NewMat(rows, 1), opts.Seed, uint32(j+1), p.rowIdx).Data
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
	canonicalSigns(um, vm)
	ck.lap(&ck.Small)
	return um, small.S, vm, nil
}

// canonicalSigns flips each singular pair (column j of u and of v) so that
// the entry of u's column largest in magnitude — the first, on a tie — is
// positive. A singular pair is defined up to its sign, and the Jacobi SVD
// of the bidiagonal picks one by the path its rotations took, which two
// runs over the same converged subspace need not share; this picks it from
// the vector itself. Negation is exact, so nothing else moves.
func canonicalSigns(u, v *dense.Mat) {
	for j := 0; j < u.Cols; j++ {
		big := 0.0
		for i := 0; i < u.Rows; i++ {
			if x := u.At(i, j); math.Abs(x) > math.Abs(big) {
				big = x
			}
		}
		if big >= 0 {
			continue
		}
		for _, m := range []*dense.Mat{u, v} {
			for i := 0; i < m.Rows; i++ {
				m.Set(i, j, -m.At(i, j))
			}
		}
	}
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
