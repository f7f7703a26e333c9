package core

import (
	"errors"
	"math"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/memtrack"
	"csrplus/internal/sparse"
	"csrplus/internal/svd"
)

// paperGraph builds the 6-node graph of Figure 1 / Example 3.6
// (nodes a..f = 0..5).
func paperGraph(t testing.TB) *graph.Graph {
	t.Helper()
	edges := [][2]int{
		{3, 0},
		{0, 1}, {2, 1}, {4, 1},
		{3, 2},
		{0, 3}, {4, 3}, {5, 3},
		{2, 4}, {5, 4},
		{3, 5},
	}
	coo := sparse.NewCOO(6, 6)
	for _, e := range edges {
		if err := coo.Add(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return graph.New(coo)
}

// exactCoSimRank iterates S = c QᵀS Q + I densely to convergence — the
// ground-truth solution of Eq. (1) for small graphs.
func exactCoSimRank(t testing.TB, g *graph.Graph, c float64, iters int) *dense.Mat {
	t.Helper()
	q, err := g.Transition()
	if err != nil {
		t.Fatal(err)
	}
	qd := q.ToDense()
	s := dense.Eye(g.N())
	for k := 0; k < iters; k++ {
		s = dense.Mul(dense.Mul(qd.T(), s), qd).Scale(c).AddEye(1)
	}
	return s
}

func TestSquaringIterations(t *testing.T) {
	// Paper: eps=1e-5, c=0.6 → log_c eps ≈ 22.5, log2 ≈ 4.49 → 5.
	if got := SquaringIterations(0.6, 1e-5); got != 5 {
		t.Fatalf("SquaringIterations(0.6, 1e-5) = %d, want 5", got)
	}
	// 2^k must cover log_c(eps) iterations of the plain recurrence.
	for _, c := range []float64{0.4, 0.6, 0.8} {
		for _, eps := range []float64{1e-3, 1e-5, 1e-8} {
			k := SquaringIterations(c, eps)
			need := math.Log(eps) / math.Log(c)
			if float64(int64(1)<<uint(k)) < need {
				t.Fatalf("c=%v eps=%v: 2^%d < %v", c, eps, k, need)
			}
		}
	}
	if got := SquaringIterations(0.6, 0.9); got != 0 {
		t.Fatalf("loose eps should clamp to 0, got %d", got)
	}
}

func TestExample36MatchesPaper(t *testing.T) {
	// The worked example: r=3, c=0.6, Q={b, d}.
	g := paperGraph(t)
	ix, err := Precompute(g, Options{Damping: 0.6, Rank: 3, Eps: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	// Singular values from the example: 1.73, 0.87, 0.54.
	wantSigma := []float64{1.73, 0.87, 0.54}
	for i, s := range ix.SingularValues() {
		if math.Abs(s-wantSigma[i]) > 0.01 {
			t.Fatalf("sigma = %v, want ≈ %v", ix.SingularValues(), wantSigma)
		}
	}
	s, err := ix.Query([]int{1, 3}, nil) // b, d
	if err != nil {
		t.Fatal(err)
	}
	wantB := []float64{0.16, 1.49, 0.16, 0.49, 0.48, 0.16}
	wantD := []float64{0.16, 0.49, 0.16, 1.49, 0.48, 0.16}
	for i := 0; i < 6; i++ {
		if math.Abs(s.At(i, 0)-wantB[i]) > 0.02 {
			t.Fatalf("[S]_{%d,b} = %v, want %v", i, s.At(i, 0), wantB[i])
		}
		if math.Abs(s.At(i, 1)-wantD[i]) > 0.02 {
			t.Fatalf("[S]_{%d,d} = %v, want %v", i, s.At(i, 1), wantD[i])
		}
	}
}

func TestFullRankMatchesExact(t *testing.T) {
	// With r = n the SVD is exact, so CSR+ must reproduce the true
	// CoSimRank matrix to the eps of the subspace solve.
	g := paperGraph(t)
	n := g.N()
	ix, err := Precompute(g, Options{Damping: 0.6, Rank: n, Eps: 1e-10,
		SVD: svd.Options{Oversample: 6, PowerIters: 8}})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	got, err := ix.Query(all, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := exactCoSimRank(t, g, 0.6, 60)
	if !got.Equal(want, 1e-6) {
		t.Fatalf("full-rank CSR+ deviates from exact by %g",
			got.Sub(want).MaxAbs())
	}
}

func TestFullRankMatchesExactRandomGraphs(t *testing.T) {
	// Same lossless check across random ER graphs and damping factors.
	for _, seed := range []int64{5, 6, 7} {
		g, err := graph.ErdosRenyi(25, 120, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []float64{0.4, 0.8} {
			ix, err := Precompute(g, Options{Damping: c, Rank: 25, Eps: 1e-12,
				SVD: svd.Options{Oversample: 10, PowerIters: 8}})
			if err != nil {
				t.Fatal(err)
			}
			all := make([]int, 25)
			for i := range all {
				all[i] = i
			}
			got, err := ix.Query(all, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := exactCoSimRank(t, g, c, 120)
			if dev := got.Sub(want).MaxAbs(); dev > 1e-5 {
				t.Fatalf("seed %d c=%v: deviation %g", seed, c, dev)
			}
		}
	}
}

func TestLowRankApproximationImprovesWithRank(t *testing.T) {
	g, err := graph.ErdosRenyi(60, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := exactCoSimRank(t, g, 0.6, 80)
	queries := []int{0, 7, 33}
	prevErr := math.Inf(1)
	for _, r := range []int{5, 20, 60} {
		ix, err := Precompute(g, Options{Rank: r, SVD: svd.Options{PowerIters: 6, Oversample: 10}})
		if err != nil {
			t.Fatal(err)
		}
		s, err := ix.Query(queries, nil)
		if err != nil {
			t.Fatal(err)
		}
		// AvgDiff over the queried block, as in the paper's Table 3.
		sum := 0.0
		for i := 0; i < g.N(); i++ {
			for j, q := range queries {
				sum += math.Abs(s.At(i, j) - want.At(i, q))
			}
		}
		avg := sum / float64(g.N()*len(queries))
		if avg > prevErr*1.5 {
			t.Fatalf("rank %d: AvgDiff %g worse than lower rank (%g)", r, avg, prevErr)
		}
		prevErr = avg
	}
	if prevErr > 1e-5 {
		t.Fatalf("full-rank AvgDiff %g not ≈ 0", prevErr)
	}
}

func TestOptionDefaults(t *testing.T) {
	g := paperGraph(t)
	ix, err := Precompute(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Damping() != DefaultDamping || ix.Rank() != DefaultRank {
		t.Fatalf("defaults not applied: c=%v r=%d", ix.Damping(), ix.Rank())
	}
	if ix.Iterations() != SquaringIterations(DefaultDamping, DefaultEps) {
		t.Fatalf("iterations = %d", ix.Iterations())
	}
	if ix.N() != 6 {
		t.Fatalf("N = %d", ix.N())
	}
	if ix.PrecomputeTime() <= 0 {
		t.Fatal("PrecomputeTime not recorded")
	}
	st := ix.Stages()
	if sum := st.Sparse + st.Ortho + st.Small + st.Subspace + st.BuildZ; sum <= 0 || sum > ix.PrecomputeTime() {
		t.Fatalf("stages %v sum to %v, PrecomputeTime is %v", st, sum, ix.PrecomputeTime())
	}
}

func TestParameterValidation(t *testing.T) {
	g := paperGraph(t)
	cases := []Options{
		{Damping: 1.0},
		{Damping: -0.2},
		{Rank: -1},
		{Rank: 7}, // > n
		{Eps: 2},
	}
	for _, o := range cases {
		if _, err := Precompute(g, o); !errors.Is(err, ErrParams) {
			t.Fatalf("opts %+v: err = %v, want ErrParams", o, err)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	g := paperGraph(t)
	ix, err := Precompute(g, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Query(nil, nil); !errors.Is(err, ErrParams) {
		t.Fatalf("empty query: err = %v", err)
	}
	if _, err := ix.Query([]int{6}, nil); !errors.Is(err, ErrQuery) {
		t.Fatalf("oob query: err = %v", err)
	}
	if _, err := ix.Query([]int{-1}, nil); !errors.Is(err, ErrQuery) {
		t.Fatalf("negative query: err = %v", err)
	}
}

func TestQueryOne(t *testing.T) {
	g := paperGraph(t)
	ix, err := Precompute(g, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ix.QueryOne(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ix.Query([]int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if v[i] != s.At(i, 0) {
			t.Fatal("QueryOne disagrees with Query")
		}
	}
}

func TestDuplicateQueriesAllowed(t *testing.T) {
	g := paperGraph(t)
	ix, err := Precompute(g, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := ix.Query([]int{1, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if s.At(i, 0) != s.At(i, 1) {
			t.Fatal("duplicate query columns differ")
		}
	}
}

func TestMemoryAccounting(t *testing.T) {
	g := paperGraph(t)
	tr := memtrack.New()
	ix, err := Precompute(g, Options{Rank: 3, Tracker: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Peak() == 0 {
		t.Fatal("tracker recorded nothing")
	}
	pre := tr.PeakByPrefix("precompute/")
	if pre <= 0 {
		t.Fatalf("precompute net bytes = %d", pre)
	}
	if _, err := ix.Query([]int{0, 1}, tr); err != nil {
		t.Fatal(err)
	}
	if q := tr.PeakByPrefix("query/"); q <= 0 {
		t.Fatalf("query net bytes = %d", q)
	}
	// Index bytes are O(rn): two 6x3 matrices + 3 sigmas.
	want := int64(6*3*8*2 + 3*8)
	if ix.Bytes() != want {
		t.Fatalf("Index.Bytes = %d, want %d", ix.Bytes(), want)
	}
}

func TestDivergenceGuard(t *testing.T) {
	// A handcrafted expansive "H": call SolveSubspace directly with factors
	// whose compressed operator has spectral radius well above 1/√c.
	u := dense.Eye(2)
	v := dense.Eye(2)
	s := []float64{40, 40} // H = Σ → c·‖H‖² = 960 ≫ 1
	_, _, err := SolveSubspace(u, s, v, 0.6, 1e-5)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
}

func TestPrecomputeDeterminism(t *testing.T) {
	g := paperGraph(t)
	ix1, err := Precompute(g, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := Precompute(g, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := ix1.Query([]int{1, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ix2.Query([]int{1, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Equal(s2, 0) {
		t.Fatal("two identical precomputes give different answers")
	}
}

func TestSelfSimilarityDominatesRow(t *testing.T) {
	// CoSimRank's "+I" base case: [S]_{a,a} exceeds [S]_{a,x} for x ≠ a.
	// Verify on the exact solution and on CSR+ at full rank.
	g := paperGraph(t)
	want := exactCoSimRank(t, g, 0.6, 60)
	for a := 0; a < 6; a++ {
		for x := 0; x < 6; x++ {
			if x != a && want.At(a, a) < want.At(a, x) {
				t.Fatalf("exact: S[%d,%d]=%v < S[%d,%d]=%v", a, a, want.At(a, a), a, x, want.At(a, x))
			}
		}
	}
}

// TestQueryIntoMatchesQueryAndReusesScratch pins the serving hot path's
// contract: QueryInto returns the same bits as Query, reuses an
// adequately-sized scratch matrix instead of allocating, and tolerates
// nil / undersized scratch.
func TestQueryIntoMatchesQueryAndReusesScratch(t *testing.T) {
	g := paperGraph(t)
	ix, err := Precompute(g, Options{Rank: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ix.Query([]int{1, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}

	scratch := dense.NewMat(g.N(), 2)
	got, err := ix.QueryInto([]int{1, 4}, scratch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != scratch {
		t.Fatal("QueryInto did not reuse adequately-sized scratch")
	}
	if !got.Equal(want, 0) {
		t.Fatal("QueryInto(scratch) differs from Query")
	}

	if got, err = ix.QueryInto([]int{1, 4}, nil, nil); err != nil || !got.Equal(want, 0) {
		t.Fatalf("QueryInto(nil scratch) differs from Query (err=%v)", err)
	}
	small := dense.NewMat(1, 1)
	if got, err = ix.QueryInto([]int{1, 4}, small, nil); err != nil || !got.Equal(want, 0) {
		t.Fatalf("QueryInto(undersized scratch) differs from Query (err=%v)", err)
	}

	// Validation errors must not clobber the scratch contract.
	if _, err := ix.QueryInto([]int{99}, scratch, nil); err == nil {
		t.Fatal("out-of-range query accepted")
	}
}
