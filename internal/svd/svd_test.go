package svd

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"csrplus/internal/dense"
	"csrplus/internal/dense/reftest"
	"csrplus/internal/graph"
	"csrplus/internal/par"
	"csrplus/internal/sparse"
)

// lowRankCSR builds a sparse-ish matrix of exact rank k as a sum of k
// outer products, returning both the CSR and dense forms.
func lowRankCSR(rng *rand.Rand, n, k int) (*sparse.CSR, *dense.Mat) {
	ref := dense.NewMat(n, n)
	for t := 0; t < k; t++ {
		u := make([]float64, n)
		v := make([]float64, n)
		for i := range u {
			u[i] = rng.NormFloat64()
			v[i] = rng.NormFloat64()
		}
		w := float64(k - t) // descending weights → distinct singular values
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ref.Set(i, j, ref.At(i, j)+w*u[i]*v[j])
			}
		}
	}
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := ref.At(i, j); v != 0 {
				if err := coo.Add(i, j, v); err != nil {
					panic(err)
				}
			}
		}
	}
	return coo.ToCSR(), ref
}

// randomSparse builds a random sparse matrix and its dense mirror.
func randomSparse(rng *rand.Rand, n int, density float64) (*sparse.CSR, *dense.Mat) {
	coo := sparse.NewCOO(n, n)
	ref := dense.NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				v := rng.NormFloat64()
				if err := coo.Add(i, j, v); err != nil {
					panic(err)
				}
				ref.Set(i, j, v)
			}
		}
	}
	return coo.ToCSR(), ref
}

// scattered returns res's factors at the full rows x cols shape, the rows
// off the support zero.
func scattered(res *Result, rows, cols int) (u, v *dense.Mat) {
	spread := func(m *dense.Mat, ids []int32, n int) *dense.Mat {
		if ids == nil {
			return m
		}
		out := dense.NewMat(n, m.Cols)
		for i, id := range ids {
			copy(out.Row(int(id)), m.Row(i))
		}
		return out
	}
	return spread(res.U, res.RowSupport, rows), spread(res.V, res.ColSupport, cols)
}

func checkFactors(t *testing.T, res *Result, n, r int) {
	t.Helper()
	if !res.U.IsShape(n, r) || !res.V.IsShape(n, r) || len(res.S) != r {
		t.Fatalf("factor shapes U%dx%d S%d V%dx%d, want n=%d r=%d",
			res.U.Rows, res.U.Cols, len(res.S), res.V.Rows, res.V.Cols, n, r)
	}
	if g := dense.TMul(res.U, res.U); !g.Equal(dense.Eye(r), 1e-8) {
		t.Fatalf("U not orthonormal (dev %g)", g.Sub(dense.Eye(r)).MaxAbs())
	}
	if g := dense.TMul(res.V, res.V); !g.Equal(dense.Eye(r), 1e-8) {
		t.Fatalf("V not orthonormal (dev %g)", g.Sub(dense.Eye(r)).MaxAbs())
	}
	for i := 1; i < r; i++ {
		if res.S[i] > res.S[i-1]+1e-10 {
			t.Fatalf("S not sorted: %v", res.S)
		}
	}
}

// A lone "randomized" subtest keeps the test ID its results are tracked
// under.

func TestTruncatedExactRankRecovery(t *testing.T) {
	t.Run("randomized", func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		a, ref := lowRankCSR(rng, 40, 4)
		res, err := Truncated(a, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		checkFactors(t, res, 40, 4)
		recon := dense.Mul(dense.Mul(res.U, dense.Diag(res.S)), res.V.T())
		if !recon.Equal(ref, 1e-6*ref.MaxAbs()) {
			t.Fatalf("rank-4 matrix not recovered exactly (maxdiff %g)",
				recon.Sub(ref).MaxAbs())
		}
	})
}

func TestTruncatedLeadingSingularValues(t *testing.T) {
	// On a general matrix, the truncated S must match the top of the full
	// dense SVD spectrum.
	rng := rand.New(rand.NewSource(31))
	a, ref := randomSparse(rng, 30, 0.4)
	full, err := dense.SVDJacobi(ref)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("randomized", func(t *testing.T) {
		res, err := Truncated(a, 5, Options{Oversample: 12, PowerIters: 6})
		if err != nil {
			t.Fatal(err)
		}
		checkFactors(t, res, 30, 5)
		for i := 0; i < 5; i++ {
			if rel := math.Abs(res.S[i]-full.S[i]) / full.S[0]; rel > 1e-4 {
				t.Fatalf("S[%d] = %v, want %v (rel err %g)", i, res.S[i], full.S[i], rel)
			}
		}
	})
}

func TestTruncatedColumnStochastic(t *testing.T) {
	// The actual CSR+ workload: column-normalised adjacency of a random
	// directed graph. Check the rank-r factors give the best rank-r
	// Frobenius error within a modest factor of optimal.
	rng := rand.New(rand.NewSource(32))
	n := 60
	coo := sparse.NewCOO(n, n)
	ref := dense.NewMat(n, n)
	for j := 0; j < n; j++ {
		deg := 1 + rng.Intn(5)
		seen := map[int]bool{}
		for d := 0; d < deg; d++ {
			i := rng.Intn(n)
			if seen[i] {
				continue
			}
			seen[i] = true
		}
		for i := range seen {
			v := 1 / float64(len(seen))
			if err := coo.Add(i, j, v); err != nil {
				panic(err)
			}
			ref.Set(i, j, v)
		}
	}
	a := coo.ToCSR()
	full, err := dense.SVDJacobi(ref)
	if err != nil {
		t.Fatal(err)
	}
	r := 8
	optimal := 0.0
	for i := r; i < n; i++ {
		optimal += full.S[i] * full.S[i]
	}
	optimal = math.Sqrt(optimal)
	res, err := Truncated(a, r, Options{Oversample: 10, PowerIters: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Nodes nobody links to leave rows of the transition matrix empty:
	// the factors come without them.
	u, v := scattered(res, n, n)
	recon := dense.Mul(dense.Mul(u, dense.Diag(res.S)), v.T())
	if got := recon.Sub(ref).FrobNorm(); got > optimal*1.1+1e-10 {
		t.Fatalf("rank-%d error %g, optimal %g", r, got, optimal)
	}
}

func TestTruncatedRankErrors(t *testing.T) {
	a := sparse.NewCOO(5, 5).ToCSR()
	for _, r := range []int{0, -1, 6} {
		if _, err := Truncated(a, r, Options{}); !errors.Is(err, ErrRank) {
			t.Fatalf("rank %d: err = %v, want ErrRank", r, err)
		}
	}
}

func TestTruncatedZeroMatrix(t *testing.T) {
	a := sparse.NewCOO(10, 10).ToCSR()
	res, err := Truncated(a, 3, Options{})
	if err != nil {
		t.Fatalf("zero matrix: %v", err)
	}
	for _, s := range res.S {
		if s > 1e-10 {
			t.Fatalf("zero matrix has singular value %g", s)
		}
	}
}

func TestTruncatedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a, _ := randomSparse(rng, 25, 0.3)
	r1, err := Truncated(a, 4, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Truncated(a, 4, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.U.Equal(r2.U, 0) || !r1.V.Equal(r2.V, 0) {
		t.Fatal("same seed produced different factors")
	}
}

// TestTruncatedWorkerCountInvariant runs the range finder at a size
// where its sparse passes, the CholeskyQR GEMMs and the Gram reductions all
// clear the parallel threshold (n = 2¹⁵, sketch width 16), and holds U, σ,
// V to the same bits at 1, 2 and 7 workers. It also checks the stage clock:
// every stage is measured, the five sum to the call, and each of the three
// orthonormalisations took CholeskyQR2's two passes.
func TestTruncatedWorkerCountInvariant(t *testing.T) {
	const n, perRow = 1 << 15, 4
	rng := rand.New(rand.NewSource(35))
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for e := 0; e < perRow; e++ {
			if err := coo.Add(i, rng.Intn(n), rng.NormFloat64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	a := coo.ToCSR()
	var want *Result
	for _, w := range []int{1, 2, 7} {
		prev := par.SetMaxWorkers(w)
		start := time.Now()
		got, err := Truncated(a, 8, Options{Seed: 3})
		elapsed := time.Since(start)
		par.SetMaxWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		st := got.Stages
		sum := st.Sparse + st.Ortho + st.Small + st.Draw + st.Rest
		if st.Sparse <= 0 || st.Ortho <= 0 || st.Small <= 0 || st.Draw <= 0 || sum > elapsed || float64(sum) < 0.95*float64(elapsed) {
			t.Fatalf("workers=%d: stages %+v do not fit the call's %v", w, st, elapsed)
		}
		if st.OrthoPasses != 6 {
			t.Fatalf("workers=%d: %d CholeskyQR passes, want 2 for each of 3 orthonormalisations", w, st.OrthoPasses)
		}
		if want == nil {
			want = got
			continue
		}
		if !reftest.BitEqual(got.U, want.U) || !reftest.BitEqual(got.V, want.V) {
			t.Fatalf("workers=%d: factors differ from the 1-worker run", w)
		}
		for i, s := range got.S {
			if math.Float64bits(s) != math.Float64bits(want.S[i]) {
				t.Fatalf("workers=%d: σ[%d] = %v, 1 worker gave %v", w, i, s, want.S[i])
			}
		}
	}
}

// TestTruncatedSpectrumFloor holds the spectrum the default options
// capture — Σσ², which a rank-r approximation's error is the rest of — on
// the FB and P2P stand-ins' transition matrices, decomposed as phase I
// decomposes them, to the values it captured at q = 2, p = 8 (see
// EXPERIMENTS.md, ablation). The keyed sketch and the kernels' tier-independent lane
// order make the run bit-deterministic, so the floor is tight: a change to
// q, p or the range finder that loses spectrum fails here, where the
// phase I pins would only say that the bits moved.
func TestTruncatedSpectrumFloor(t *testing.T) {
	for _, c := range []struct {
		key   string
		r     int
		floor float64
	}{
		{"FB", 5, 5.9568502733608932},
		{"FB", 16, 13.738837338121218},
		{"P2P", 5, 12.308318939112112},
		{"P2P", 16, 38.094193517543047},
	} {
		d, err := graph.DatasetByKey(c.key)
		if err != nil {
			t.Fatal(err)
		}
		g, err := d.Generate()
		if err != nil {
			t.Fatal(err)
		}
		q, rows, cols, err := g.SupportTransition()
		if err != nil {
			t.Fatal(err)
		}
		res, err := TruncatedSupport(q, g.N(), g.N(), rows, cols, c.r, Options{})
		if err != nil {
			t.Fatal(err)
		}
		captured := 0.0
		for _, s := range res.S {
			captured += s * s
		}
		if captured < c.floor*(1-1e-12) {
			t.Errorf("%s r=%d: Σσ² = %.17g, below the floor %.17g", c.key, c.r, captured, c.floor)
		}
	}
}

func TestResultBytes(t *testing.T) {
	res := &Result{U: dense.NewMat(10, 3), S: make([]float64, 3), V: dense.NewMat(10, 3)}
	want := int64(10*3*8 + 3*8 + 10*3*8)
	if res.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", res.Bytes(), want)
	}
}

func TestTruncatedRectangular(t *testing.T) {
	// Non-square inputs (tall and wide) must work.
	rng := rand.New(rand.NewSource(34))
	for _, dims := range [][2]int{{40, 25}, {25, 40}} {
		coo := sparse.NewCOO(dims[0], dims[1])
		ref := dense.NewMat(dims[0], dims[1])
		for i := 0; i < dims[0]; i++ {
			for j := 0; j < dims[1]; j++ {
				if rng.Float64() < 0.3 {
					v := rng.NormFloat64()
					if err := coo.Add(i, j, v); err != nil {
						panic(err)
					}
					ref.Set(i, j, v)
				}
			}
		}
		a := coo.ToCSR()
		full, err := dense.SVDJacobi(tallOf(ref))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Truncated(a, 4, Options{Oversample: 10, PowerIters: 5})
		if err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
		if !res.U.IsShape(dims[0], 4) || !res.V.IsShape(dims[1], 4) {
			t.Fatalf("%v: factor shapes %dx%d / %dx%d", dims,
				res.U.Rows, res.U.Cols, res.V.Rows, res.V.Cols)
		}
		for i := 0; i < 4; i++ {
			// Interior values converge last; 0.5% of S[0] is the
			// realistic bar at this few-step budget.
			if rel := math.Abs(res.S[i]-full.S[i]) / full.S[0]; rel > 5e-3 {
				t.Fatalf("%v: S[%d]=%v want %v", dims, i, res.S[i], full.S[i])
			}
		}
	}
}

// tallOf transposes wide matrices so the dense reference SVD (rows >=
// cols) applies; singular values are transpose-invariant.
func tallOf(m *dense.Mat) *dense.Mat {
	if m.Rows >= m.Cols {
		return m
	}
	return m.T()
}
