// Package core implements CSR+, the paper's primary contribution: a
// multi-source CoSimRank search algorithm (Algorithm 1) that runs in
// O(r(m + n(r + |Q|))) time and O(rn) memory by combining a rank-r
// truncated SVD of the transition matrix with a repeated-squaring solve of
// the r x r subspace equation P = c H P Hᵀ + I_r (Theorems 3.1–3.5). The
// index serves S_r − I = c·U(ΣPΣ)Uᵀ in its symmetric form c·F·Fᵀ: one
// n x r factor where Algorithm 1 stores two (THEORY.md §6).
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/memtrack"
	"csrplus/internal/svd"
)

// Default parameter values from the paper's §4.1.
const (
	DefaultDamping = 0.6
	DefaultRank    = 5
	DefaultEps     = 1e-5
)

// ErrDiverged is returned (wrapped) when the subspace iteration blows up.
// The compressed operator H = VᵀUΣ is not guaranteed contractive for every
// graph/rank combination; the paper assumes convergence, we verify it.
var ErrDiverged = errors.New("core: subspace iteration diverged")

// ErrParams is returned (wrapped) for out-of-range parameters.
var ErrParams = errors.New("core: invalid parameters")

// ErrQuery is returned (wrapped) for out-of-range query node ids.
var ErrQuery = errors.New("core: query node out of range")

// Options configures Precompute.
type Options struct {
	// Damping is the CoSimRank damping factor c in (0, 1). Default 0.6.
	Damping float64
	// Rank is the SVD target rank r. Default 5.
	Rank int
	// Eps is the desired accuracy of the subspace solve. Default 1e-5.
	Eps float64
	// SVD tunes the truncated SVD driver.
	SVD svd.Options
	// Solver selects the subspace solve; the zero value is the paper's
	// repeated squaring. The alternatives exist for the ablation study
	// (see ablation.go).
	Solver SubspaceSolver
	// Tracker, when non-nil, receives analytic memory accounting.
	Tracker *memtrack.Tracker
}

func (o Options) withDefaults() Options {
	if o.Damping == 0 {
		o.Damping = DefaultDamping
	}
	if o.Rank == 0 {
		o.Rank = DefaultRank
	}
	if o.Eps == 0 {
		o.Eps = DefaultEps
	}
	return o
}

func (o Options) validate(n int) error {
	if o.Damping <= 0 || o.Damping >= 1 {
		return fmt.Errorf("core: damping %v not in (0, 1): %w", o.Damping, ErrParams)
	}
	if o.Rank < 1 || o.Rank > n {
		return fmt.Errorf("core: rank %d not in [1, %d]: %w", o.Rank, n, ErrParams)
	}
	if o.Eps <= 0 || o.Eps >= 1 {
		return fmt.Errorf("core: eps %v not in (0, 1): %w", o.Eps, ErrParams)
	}
	return nil
}

// Index holds CSR+'s precomputed state (Algorithm 1, phase I): the factor F
// such that [S]_{*,Q} = [I_n]_{*,Q} + c · F · [F]_{Q,*}ᵀ. F is n x r, the
// paper's O(rn) resident memory at half its constant — less the rows that
// are all zero, which are not stored (shard.go). Phase II is
// row-separable, so the factor is nothing but the [0, n) IndexShard —
// embedded, which is where N, Rank, Damping, Tier, ColMaxes and the banded
// PartialInto live — and an Index adds the build metadata and whatever
// owns the factor's memory.
type Index struct {
	IndexShard

	iters   int       // repeated-squaring iterations performed
	sigma   []float64 // singular values (diagnostics)
	precomp time.Duration
	stages  Stages
	qrows   int // non-empty rows of Q that phase I decomposed; see Support

	// walSeq is the last ingest-WAL sequence number whose edge is baked
	// into the factors (0 for indexes built outside the ingestion path),
	// and so into the graph the index carries: an ingest boot replays only
	// the WAL records above it, with drift counting.
	walSeq uint64

	// graph is the graph the factors were computed over — Q's in-link CSC,
	// what a snapshot's graph section holds (graphsec.go) — nil for an
	// index assembled by hand, which no snapshot can hold.
	graph carriedGraph

	// mapped is non-nil when the factor slice is a zero-copy view over
	// an mmap'd snapshot (MapIndex); Close releases it. Only the Index
	// that mapped the file holds it — a Shard view aliases the pages but
	// cannot close them — so the serving lifecycle must keep the Index
	// alive until every in-flight query has drained (DESIGN.md §13).
	mapped *mapping

	// quantOnce lazily computes quantBound, the entrywise quantisation
	// error bound a quantized tier adds to every truncation bound.
	quantOnce  sync.Once
	quantBound float64
}

// WalSeq returns the last ingest-WAL sequence baked into the factor, 0 for
// indexes built outside the ingestion path.
func (ix *Index) WalSeq() uint64 { return ix.walSeq }

// SetWalSeq records the last WAL sequence covered by the factors; the
// ingestion rebuild path calls it before writing the snapshot so boot
// recovery knows where drift-counted replay starts.
func (ix *Index) SetWalSeq(seq uint64) { ix.walSeq = seq }

// Iterations returns the number of repeated-squaring steps performed.
func (ix *Index) Iterations() int { return ix.iters }

// SingularValues returns the retained singular values (descending).
func (ix *Index) SingularValues() []float64 {
	return append([]float64(nil), ix.sigma...)
}

// PrecomputeTime returns the wall-clock duration of index construction.
func (ix *Index) PrecomputeTime() time.Duration { return ix.precomp }

// Stages splits PrecomputeTime by the layer of phase I that spent it:
// the truncated SVD's three (sparse passes, orthonormalisation, the small
// projected problem), then the subspace solve — with the gather of the rows
// both factors hold — and the Gram factor, then what surrounds them: the
// SVD's sketch draw, and in Rest the transition matrix and the support
// scan — so the seven durations sum to PrecomputeTime. OrthoPasses counts
// the CholeskyQR passes beside them, and GramClamped the eigenvalues of
// ΣPΣ served as 0. All zero for an index that was loaded, not built.
type Stages struct {
	svd.Stages
	Subspace    time.Duration // lines 3–5: P = c H P Hᵀ + I_r
	Gram        time.Duration // line 6, symmetric: F = U E Λ^{1/2}, ΣPΣ = EΛEᵀ
	GramClamped int           // eigenvalues of ΣPΣ served as 0 (Gram.Clamped)
}

// String renders the split for log lines.
func (s Stages) String() string {
	ms := func(d time.Duration) time.Duration { return d.Round(100 * time.Microsecond) }
	return fmt.Sprintf("sparse=%v ortho=%v ortho_passes=%d eig=%v solve=%v gram=%v gram_clamped=%d draw=%v rest=%v",
		ms(s.Sparse), ms(s.Ortho), s.OrthoPasses, ms(s.Small), ms(s.Subspace), ms(s.Gram), s.GramClamped, ms(s.Draw), ms(s.Rest))
}

// Stages returns where PrecomputeTime went.
func (ix *Index) Stages() Stages { return ix.stages }

// Support returns the shape of the block of Q that phase I decomposed: its
// non-empty rows (nodes with an out-link) by its non-empty columns (nodes
// with an in-link), or n x n when Q was decomposed as given. A node off the
// column support has a zero row in F, which the index does not store:
// its similarity column is e_q. cols is therefore Stored(), and survives a
// save and a load; rows is 0 for an index that was loaded, not built.
func (ix *Index) Support() (rows, cols int) { return ix.qrows, ix.Stored() }

// Bytes reports the resident memory of the index: the factor F — the
// O(rn) of Theorem 3.7 — at the tier's element width, plus the rank-length
// metadata vectors.
func (ix *Index) Bytes() int64 {
	return ix.IndexShard.Bytes() + int64(len(ix.sigma)+len(ix.fqerr))*8
}

// Eigenvalues returns the eigenvalues of W = ΣPΣ the factor serves, in
// F's column order (descending, to rounding): λ_j = ‖F_{*,j}‖², because
// F = (UE)·Λ^{1/2} and UE has orthonormal columns (THEORY.md §6). A clamped
// eigenvalue reads 0, and a quantized tier's read within its quantisation.
func (ix *Index) Eigenvalues() []float64 {
	lambda := make([]float64, ix.rank)
	row := make([]float64, ix.rank)
	for i := 0; i < ix.Stored(); i++ {
		for j, v := range ix.f.RowInto(i, row) {
			lambda[j] += v * v
		}
	}
	return lambda
}

// SquaringIterations returns the paper's iteration bound
// max{0, ⌊log₂ log_c ε⌋ + 1} for the repeated-squaring loop.
func SquaringIterations(c, eps float64) int {
	k := int(math.Floor(math.Log2(math.Log(eps)/math.Log(c)))) + 1
	if k < 0 {
		return 0
	}
	return k
}

// Precompute runs phase I of Algorithm 1 on g and returns the query-ready
// index.
func Precompute(g *graph.Graph, opts Options) (*Index, error) {
	opts = opts.withDefaults()
	if err := opts.validate(g.N()); err != nil {
		return nil, err
	}
	start := time.Now()
	track := opts.Tracker
	n, r, c := g.N(), opts.Rank, opts.Damping

	// Line 1: column-normalised adjacency Q — only its support block, the
	// rows and columns phase I decomposes, built straight from the graph.
	q, qrows, qcols, err := g.SupportTransition()
	if err != nil {
		return nil, fmt.Errorf("core: precompute: %w", err)
	}
	transition := time.Since(start)
	track.Alloc("precompute/Q", q.Bytes())

	// Line 2: rank-r SVD. Algorithm 1 is phrased over the operator that
	// acts as S ← c M S Mᵀ + I, i.e. M = Qᵀ (the paper's Example 3.6
	// prints the factors of Qᵀ under the name Q = UΣVᵀ). Decomposing
	// Q ≈ U Σ Vᵀ therefore gives M = Qᵀ ≈ V Σ Uᵀ: the roles of U and V
	// swap. First-order sanity check: S ≈ I + cQᵀQ = I + cVΣ²Vᵀ.
	//
	// The factors come on Q's support: U (= fac.V) has a row for each node
	// with an in-link, ids fac.ColSupport, and V (= fac.U) one for each node
	// with an out-link, ids fac.RowSupport; every other row is +0.
	fac, err := svd.TruncatedSupport(q, n, n, qrows, qcols, r, opts.SVD)
	if err != nil {
		return nil, fmt.Errorf("core: precompute: truncated SVD: %w", err)
	}
	um, vm := fac.V, fac.U // left/right singular vectors of M = Qᵀ
	track.Alloc("precompute/USV", fac.Bytes())
	track.Free("precompute/Q", q.Bytes()) // Q not needed past the SVD

	// Lines 3–5: subspace solve (variant-selectable for the ablation).
	// H₀ = VᵀUΣ sums over nodes, and a node outside either support is +0
	// in one factor and adds nothing, so the solvers see the rows both hold.
	// V is read by nothing else: its common rows are compacted in place and
	// U's gathered into the room left behind them (the SVD's dead panel
	// space, svd.Result), fresh memory only when that is too short.
	stages := Stages{Stages: fac.Stages}
	stages.Rest += transition
	lap := time.Now()
	uh, vh := um, vm
	if fac.ColSupport != nil || fac.RowSupport != nil {
		iu, iv := commonRows(fac.ColSupport, fac.RowSupport, n)
		vh = gatherRows(vm, iv, vm.Data)
		uh = gatherRows(um, iu, vm.Data[len(vh.Data):cap(vm.Data)])
	}
	var p *dense.Mat
	var iters int
	switch opts.Solver {
	case SolverSquaring:
		p, iters, err = SolveSubspace(uh, fac.S, vh, c, opts.Eps)
	case SolverPlain:
		p, iters, err = SolveSubspacePlain(uh, fac.S, vh, c, opts.Eps)
	case SolverExplicitLambda:
		p, err = SolveSubspaceLambda(uh, fac.S, vh, c)
	default:
		err = fmt.Errorf("core: unknown solver %d: %w", int(opts.Solver), ErrParams)
	}
	if err != nil {
		return nil, fmt.Errorf("core: precompute: %w", err)
	}
	track.Alloc("precompute/P", p.Bytes())
	stages.Subspace = time.Since(lap)

	// Line 6 in symmetric form: F = U E Λ^{1/2}, over the rows U has: the
	// SVD's column support. Each row of F is a function of its row of U
	// alone, so these are the rows the full product would hold, bit for
	// bit, and the rest would be +0. U is not kept: F is the whole index,
	// made in V's buffer, dead since the solve.
	lap = time.Now()
	e, gram := gramRoot(fac.S, p)
	f := dense.MulInto(matIn(vm.Data[:cap(vm.Data)], um.Rows, r), um, e)
	stages.Gram, stages.GramClamped = time.Since(lap), gram.Clamped
	track.Alloc("precompute/F", f.Bytes())
	track.Free("precompute/P", p.Bytes())

	return &Index{
		IndexShard: IndexShard{n: n, hi: n, c: c, rank: r, ids: fac.ColSupport, f: dense.TypedFromMat(f),
			build: buildID(n, r, c, fac.S, f.Data), clamp: c * gram.Mass},
		iters:   iters,
		sigma:   fac.S,
		precomp: time.Since(start),
		stages:  stages,
		qrows:   fac.SupportRows,
		graph:   carry(g),
	}, nil
}

// commonRows merges two ascending id lists over [0, n) — nil meaning every
// id — and returns, for each id both hold, its position in a and in b.
func commonRows(a, b []int32, n int) (ia, ib []int32) {
	id := func(s []int32, i int) int32 {
		if s == nil {
			return int32(i)
		}
		return s[i]
	}
	na, nb := len(a), len(b)
	if a == nil {
		na = n
	}
	if b == nil {
		nb = n
	}
	ia, ib = make([]int32, 0, min(na, nb)), make([]int32, 0, min(na, nb))
	for i, j := 0, 0; i < na && j < nb; {
		switch x, y := id(a, i), id(b, j); {
		case x < y:
			i++
		case x > y:
			j++
		default:
			ia, ib = append(ia, int32(i)), append(ib, int32(j))
			i++
			j++
		}
	}
	return ia, ib
}

// SolveSubspace runs lines 3–5 of Algorithm 1: form H₀ = VᵀUΣ and solve
// P = c H P Hᵀ + I_r by repeated squaring,
//
//	P_{k+1} = P_k + c^(2^k) H_k P_k H_kᵀ,  H_{k+1} = H_k²,
//
// for max{0, ⌊log₂ log_c ε⌋ + 1} iterations. It returns the converged P and
// the iteration count, or ErrDiverged when the compressed operator is not
// contractive enough for the series to stay bounded.
func SolveSubspace(u *dense.Mat, s []float64, v *dense.Mat, c, eps float64) (*dense.Mat, int, error) {
	r := len(s)
	// H0 = Vᵀ U Σ — O(nr²) time, O(r²) result.
	h := dense.TMul(v, u)
	for i := 0; i < r; i++ {
		row := h.Row(i)
		for j := 0; j < r; j++ {
			row[j] *= s[j]
		}
	}
	p := dense.Eye(r)
	kmax := SquaringIterations(c, eps)
	// The divergence guard bounds ‖P‖_max by the exact series' worst case:
	// entries of the CoSimRank matrix are at most 1/(1-c) when the series
	// converges; the compressed series can legitimately overshoot only by
	// modest spectral leakage, so a generous fixed multiple is safe.
	limit := 1e6 / (1 - c)
	weight := c // c^(2^k)
	for k := 0; k < kmax; k++ {
		// P ← P + weight · H P Hᵀ
		hp := dense.Mul(h, p)
		hpht := dense.MulT(hp, h)
		p.AddInPlace(hpht.Scale(weight))
		if p.HasNaN() || p.MaxAbs() > limit {
			return nil, k + 1, fmt.Errorf("core: after %d squaring steps ‖P‖=%g: %w", k+1, p.MaxAbs(), ErrDiverged)
		}
		h = dense.Mul(h, h)
		weight *= weight
	}
	return p, kmax, nil
}

// Gram is what BuildF's eigensolve clamped: the eigenvalues of W = ΣPΣ that
// came out negative and are served as 0.
type Gram struct {
	Clamped int     // how many
	Mass    float64 // Σ|λ| over them
}

// BuildF computes line 6 of Algorithm 1 in symmetric form. Algorithm 1
// stores Z = U W and U, W = ΣPΣ, and serves c·Z·U_Qᵀ = c·U W U_Qᵀ. W is
// symmetric positive definite whenever σ_r > 0 (P = Σ_k cᵏHᵏ(Hᵏ)ᵀ ⪰ I), so
// with W = EΛEᵀ the one factor F = U·(E Λ^{1/2}) serves the same matrix as
// c·F·F_Qᵀ, at the cost of one r x r eigensolve beside the GEMM Z took. W is
// symmetrised before the solve; an eigenvalue that comes out negative —
// only possible when σ_r = 0 — is served as 0 and counted in Gram, and
// its charge c·Mass joins every bound (THEORY.md §6). F's columns are
// ordered by descending λ, so a rank-r' prefix is the best rank-r'
// approximation of S_r − I.
func BuildF(u *dense.Mat, s []float64, p *dense.Mat) (*dense.Mat, Gram) {
	e, g := gramRoot(s, p)
	return dense.Mul(u, e), g
}

// gramRoot is BuildF short of its GEMM: W = ΣPΣ, symmetrised, W = EΛEᵀ with
// λ clamped at 0, and the r x r E Λ^{1/2} that F = U·(E Λ^{1/2}) needs.
func gramRoot(s []float64, p *dense.Mat) (*dense.Mat, Gram) {
	r := len(s)
	w := dense.NewMat(r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			w.Set(i, j, s[i]*p.At(i, j)*s[j])
		}
	}
	for i := 0; i < r; i++ {
		for j := i + 1; j < r; j++ {
			m := (w.At(i, j) + w.At(j, i)) / 2
			w.Set(i, j, m)
			w.Set(j, i, m)
		}
	}
	lambda, e, _ := dense.SymEig(w) // square by construction
	var g Gram
	for j, l := range lambda {
		root := 0.0
		if l > 0 {
			root = math.Sqrt(l)
		} else if l < 0 {
			g.Clamped++
			g.Mass -= l
		}
		for i := 0; i < r; i++ {
			e.Set(i, j, e.At(i, j)*root)
		}
	}
	return e, g
}

// matIn returns a rows x cols matrix over the head of buf, or a new one
// when buf is too short.
func matIn(buf []float64, rows, cols int) *dense.Mat {
	if len(buf) < rows*cols {
		return dense.NewMat(rows, cols)
	}
	return &dense.Mat{Rows: rows, Cols: cols, Data: buf[:rows*cols]}
}

// gatherRows copies the rows idx of m, in order, into the head of dst and
// returns them as a matrix — into a new one when dst is too short. dst may
// be m's own storage when idx ascends: row t then comes from a row at or
// past t, which the copies before it have not overwritten.
func gatherRows(m *dense.Mat, idx []int32, dst []float64) *dense.Mat {
	c := m.Cols
	out := matIn(dst, len(idx), c)
	for t, i := range idx {
		copy(out.Data[t*c:(t+1)*c], m.Data[int(i)*c:(int(i)+1)*c])
	}
	return out
}

// buildID names an index build: FNV-1a over n, r, c, σ and the CRC-32 of F's
// stored rows, so two identical rebuilds share it and any change to the
// factor gives another. Shards and quantized copies keep their parent's.
func buildID(n, r int, c float64, sigma, f []float64) uint64 {
	fc := crc32.NewIEEE()
	_ = f64Section(f).encode(fc) // a hash never fails a write
	words := []uint64{uint64(n), uint64(r), math.Float64bits(c), uint64(fc.Sum32())}
	for _, s := range sigma {
		words = append(words, math.Float64bits(s))
	}
	h := fnv.New64a()
	_ = binary.Write(h, binary.LittleEndian, words)
	return h.Sum64()
}

// Query runs phase II of Algorithm 1: it returns the n x |Q| block
// [S]_{*,Q} = [I_n]_{*,Q} + c · F · [F]_{Q,*}ᵀ. Column j of the result
// holds the CoSimRank similarity of every node with queries[j]. It returns
// ErrQuery (wrapped) for out-of-range node ids and ErrParams for an empty
// query set.
func (ix *Index) Query(queries []int, track *memtrack.Tracker) (*dense.Mat, error) {
	return ix.QueryInto(queries, nil, track)
}

// QueryInto is Query writing into caller-provided scratch: the n x |Q|
// result reuses scratch's backing array when its capacity suffices
// (contents are overwritten) and allocates otherwise. Passing nil scratch
// is exactly Query. The returned matrix is the result — scratch itself
// whenever it had capacity — so serving layers can pool one matrix per
// in-flight batch instead of allocating n x |Q| per engine call. It is
// QueryRankInto with nothing to cancel it.
func (ix *Index) QueryInto(queries []int, scratch *dense.Mat, track *memtrack.Tracker) (*dense.Mat, error) {
	return ix.QueryRankInto(context.Background(), queries, 0, scratch, track)
}

// QueryRankInto is QueryInto honouring ctx. It validates, gathers the
// query rows of F and runs PartialInto on the [0, n) shard the index is —
// the monolithic index is the K=1 partition. Returns ctx.Err() on
// cancellation. The int is ignored; it stays only because the benchmark
// harness (csrload) passes it (ROADMAP item 1 Step B).
func (ix *Index) QueryRankInto(ctx context.Context, queries []int, _ int, scratch *dense.Mat, track *memtrack.Tracker) (*dense.Mat, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("core: empty query set: %w", ErrParams)
	}
	for _, q := range queries {
		if q < 0 || q >= ix.n {
			return nil, fmt.Errorf("core: node %d not in [0, %d): %w", q, ix.n, ErrQuery)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	uq := ix.gatherF(queries) // [F]_{Q,*} as float64, dequantised on a quantized tier
	track.Alloc("query/FQ", uq.Bytes())
	s := scratch.Reuse(ix.n, len(queries))
	track.Alloc("query/S", s.Bytes())
	if err := ix.PartialInto(ctx, queries, uq, 0, s); err != nil {
		return nil, err
	}
	return s, nil
}

// TruncationBound returns the entrywise error bound of the index's
// answers against the exact float64 factors: a quantized tier's
// QuantizationBound plus, when the Gram clamp moved an eigenvalue, its
// ClampBound; 0 for an exact, unclamped index. The int is ignored; it
// stays only because the benchmark harness (csrload) passes
// serve.Ranked.Bound (ROADMAP item 1 Step B).
func (ix *Index) TruncationBound(_ int) float64 {
	return ix.QuantizationBound() + ix.clamp // summed as the router sums them
}

// QueryOne returns the single-source similarity vector [S]_{*,q}.
func (ix *Index) QueryOne(q int) ([]float64, error) {
	s, err := ix.Query([]int{q}, nil)
	if err != nil {
		return nil, err
	}
	return s.Col(0, nil), nil
}
