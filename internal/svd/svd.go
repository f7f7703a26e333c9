// Package svd implements rank-r truncated singular value decomposition of
// sparse matrices, the substrate CSR+'s precomputation stands on
// (Algorithm 1, line 2). MATLAB supplies this as svds; in stdlib-only Go
// it is built here as randomized subspace iteration (Halko, Martinsson &
// Tropp 2011): a Gaussian range sketch — one keyed row per column, drawn
// only for the columns that hold entries — refined by power iterations,
// orthonormalised by CholeskyQR2, finished through the k x k Gram matrix
// of the projected factor (a Jacobi eigensolve). O(q · r · m) sparse work,
// deterministic given a seed.
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

// ErrRank is returned (wrapped) for invalid rank requests.
var ErrRank = errors.New("svd: invalid rank")

// Options tunes the truncated SVD.
type Options struct {
	// Oversample is the extra sketch width p beyond the target rank.
	// Default 8.
	Oversample int
	// PowerIters is the number of (A Aᵀ) power refinements. Default 2.
	PowerIters int
	// Seed keys the Gaussian sketch: the row for column j is drawn from
	// the stream keyed by (Seed, j), so it is the same whatever the rest
	// of the matrix holds. The zero seed is a valid fixed seed.
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
// the rows the range finder computed, A's support: row i of U is row RowSupport[i]
// of the full left factor, row i of V row ColSupport[i] of the right one,
// and every row left out is exactly zero. U and V may sit at the head of
// the range finder's larger work buffers: what lies past len(Data), up to
// cap(Data), is dead memory the caller may reuse.
type Result struct {
	U *dense.Mat
	S []float64
	V *dense.Mat
	// SupportRows x SupportCols is the shape of the matrix the
	// decomposition worked on: A's non-empty rows and columns, or A's own shape when it
	// was decomposed as given. U has SupportRows rows, V SupportCols.
	SupportRows, SupportCols int
	// RowSupport and ColSupport list, ascending, the rows and the columns
	// of A the decomposition worked on — the rows of U and of V — when
	// they are a proper subset; nil means every row (every column), in
	// place.
	RowSupport, ColSupport []int32
	// Stages is where the decomposition's wall time went; the five
	// durations sum to the call's.
	Stages Stages
}

// Stages splits a Truncated call's wall time by the layer that spent it.
type Stages struct {
	// Sparse is the passes over the matrix: the A·X and Aᵀ·X products,
	// with their set-up — the two panels and the transpose of A that
	// they wait for.
	Sparse time.Duration
	// Ortho is orthonormalisation: the CholeskyQR2 passes.
	Ortho time.Duration
	// Small is the projected problem: the Gram matrix and its eigensolve
	// and the products that carry its leading r vectors back to the
	// support's rows.
	Small time.Duration
	// Draw is the Gaussian sketch: one keyed row per support column and
	// nothing else (see keyed). The transpose of A is built on a second
	// goroutine meanwhile; whatever of that the draw does not hide is
	// waited for in Sparse.
	Draw time.Duration
	// Rest is what is left around the range finder: the support scan.
	Rest time.Duration
	// OrthoPasses counts the CholeskyQR passes: two per
	// orthonormalisation, PowerIters + 1 of them, and more for each
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
// The range finder runs on a's support (see restrict): an empty row of a is a
// zero row of every A·X, an empty column a zero row of every Aᵀ·X, and the
// SVD of a zero-padded matrix is the zero-padded SVD of its non-zero block,
// so the dense work — every tall allocation, the Gaussian draw, and the
// factors returned — is sized by the rows and columns that hold entries.
// Each Gaussian row is keyed by its column's id (see keyed), so the
// restricted run multiplies the numbers the full-size run multiplies
// against a's entries and its factors are that run's to rounding; a matrix
// with no empty row or column is decomposed by the same arithmetic, bit for
// bit.
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

// decompose runs the range finder on p: rank-r factors over p's rows and
// columns.
func (p *problem) decompose(r int, opts Options, ck *clock) (*Result, error) {
	u, s, v, err := randomized(p, r, opts, ck)
	if err != nil {
		return nil, err
	}
	res := &Result{U: u, S: make([]float64, r), V: v, RowSupport: p.rowIdx, ColSupport: p.colIdx}
	copy(res.S, s) // the leading r of the k the sketch found
	res.SupportRows, res.SupportCols = p.a.Dims()
	res.Stages = ck.Stages
	return res, nil
}

// problem is what the range finder decomposes: the input restricted to its support,
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
// first m.Cols values of the stream keyed by (seed, id), where the id is
// keep[i], or i when keep is nil. The key seeds a PCG generator — the seed
// its high word, the id its low word's low 32 bits, the rest zero — whose
// NormFloat64 values fill the row. A row is a function of
// its key alone: not of the matrix's shape, of which other ids are kept,
// or of the order the rows are drawn in. So a restricted problem and the
// matrix as given draw the same row for a column, a column keeps its row
// when entries come or go elsewhere, and only the support is drawn.
func keyed(m *dense.Mat, seed int64, keep []int32) *dense.Mat {
	var src rand.PCG
	rng := rand.New(&src)
	for i := 0; i < m.Rows; i++ {
		id := uint32(i)
		if keep != nil {
			id = uint32(keep[i])
		}
		src.Seed(uint64(seed), uint64(id))
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
	keyed(omega, opts.Seed, p.colIdx)
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
