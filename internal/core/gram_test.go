package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/graph"
	"csrplus/internal/svd"
)

// twoFactors replays phase I up to P and returns what Algorithm 1 stores,
// Z = U(ΣPΣ) and U, on the column support (ids; nil is every row): the
// two-factor index the one factor replaced.
func twoFactors(t *testing.T, g *graph.Graph, r int, c float64) (z, u *dense.Mat, ids []int32) {
	t.Helper()
	q, err := g.Transition()
	if err != nil {
		t.Fatal(err)
	}
	fac, err := svd.Truncated(q, r, svd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	uh, vh := fac.V, fac.U
	if fac.ColSupport != nil || fac.RowSupport != nil {
		iu, iv := commonRows(fac.ColSupport, fac.RowSupport, g.N())
		uh, vh = gatherRows(fac.V, iu, nil), gatherRows(fac.U, iv, nil)
	}
	p, _, err := SolveSubspace(uh, fac.S, vh, c, DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	w := dense.NewMat(r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			w.Set(i, j, fac.S[i]*p.At(i, j)*fac.S[j])
		}
	}
	return dense.Mul(fac.V, w), fac.V, fac.ColSupport
}

// TestGramFactorServesZU holds the one factor to the two it replaced: on
// seeded graphs, with and without rows left out, I + c·F·F_Qᵀ is
// I + c·Z·U_Qᵀ to rounding (1e-12 entrywise), F's squared column norms are
// the eigenvalues of ΣPΣ in descending order, and nothing was clamped.
func TestGramFactorServesZU(t *testing.T) {
	const c = 0.6
	er, err := graph.ErdosRenyi(300, 1200, 11)
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := graph.RMAT(10, 6000, graph.DefaultRMAT, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		g *graph.Graph
		r int
	}{"ER": {er, 8}, "RMAT": {rmat, 16}} {
		ix, err := Precompute(tc.g, Options{Rank: tc.r, Damping: c})
		if err != nil {
			t.Fatal(err)
		}
		if ix.Stages().GramClamped != 0 || ix.ClampBound() != 0 {
			t.Fatalf("%s: %d eigenvalues clamped", name, ix.Stages().GramClamped)
		}
		z, u, ids := twoFactors(t, tc.g, tc.r, c)
		n := tc.g.N()
		row := make([]int, n) // stored row of each node, -1 when implicit
		for i := range row {
			row[i] = -1
		}
		for i := 0; i < z.Rows; i++ {
			if ids == nil {
				row[i] = i
			} else {
				row[ids[i]] = i
			}
		}
		queries := []int{0, 1, 7, n / 2, n - 1}
		got, err := ix.QueryRankInto(context.Background(), queries, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j, q := range queries {
			for i := 0; i < n; i++ {
				want := 0.0
				if i == q {
					want = 1
				}
				if row[i] >= 0 && row[q] >= 0 {
					want += c * dense.Dot(z.Row(row[i]), u.Row(row[q]))
				}
				if d := math.Abs(got.At(i, j) - want); !(d <= 1e-12) {
					t.Fatalf("%s: S[%d, %d] = %v, the two factors serve %v: differs by %g", name, i, q, got.At(i, j), want, d)
				}
			}
		}
		lambda := ix.Eigenvalues()
		for j := 1; j < len(lambda); j++ {
			if lambda[j] > lambda[j-1]*(1+1e-9) {
				t.Fatalf("%s: λ = %v, not descending", name, lambda)
			}
		}
	}
}

// TestGramClampChargesTheBound drives the clamp, which no graph here
// reaches — the null directions of a rank-deficient Q come out at λ ≈ +0 —
// with an indefinite W: its negative eigenvalue is served as 0, counted,
// and charged at c·Σ|λ_clamped| to the bound, and the served answer stays
// within TruncationBound of c·U·W·Uᵀ.
func TestGramClampChargesTheBound(t *testing.T) {
	const n, r, c = 60, 5, 0.6
	rng := rand.New(rand.NewSource(5))
	a := dense.NewMat(n, r)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	u, err := dense.Orthonormalize(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := []float64{1, 0.8, 0.5, 0.3, 0.1}
	p := dense.Eye(r)
	p.Set(4, 4, -0.5) // W = ΣPΣ gets one eigenvalue near -0.005
	p.Set(0, 4, 0.2)
	p.Set(4, 0, 0.2)
	f, g := BuildF(u, s, p)
	if g.Clamped != 1 || !(g.Mass > 0) {
		t.Fatalf("gram %+v: want one eigenvalue clamped, its |λ| as the mass", g)
	}
	ix := &Index{IndexShard: IndexShard{n: n, hi: n, c: c, rank: r, f: dense.TypedFromMat(f), clamp: c * g.Mass}}
	bound := ix.TruncationBound(0)
	if bound != c*g.Mass {
		t.Fatalf("bound %v, want the clamp charge %v", bound, c*g.Mass)
	}
	w := dense.NewMat(r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			w.Set(i, j, s[i]*p.At(i, j)*s[j])
		}
	}
	want := dense.MulT(dense.Mul(u, w), u).Scale(c).AddEye(1)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	got, err := ix.QueryRankInto(context.Background(), all, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range got.Data {
		worst = math.Max(worst, math.Abs(got.Data[i]-want.Data[i]))
	}
	if worst > bound {
		t.Fatalf("served within %g of c·U·W·Uᵀ, bound %g", worst, bound)
	}
	if worst < c*g.Mass/10 {
		t.Fatalf("served within %g, so the clamp moved nothing and the test proves nothing", worst)
	}
}
