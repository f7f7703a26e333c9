package dense

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func checkOrthonormalCols(t *testing.T, q *Mat, tol float64) {
	t.Helper()
	g := TMul(q, q)
	if !g.Equal(Eye(q.Cols), tol) {
		t.Fatalf("columns not orthonormal: QᵀQ deviates by %g", g.Sub(Eye(q.Cols)).MaxAbs())
	}
}

func TestOrthonormalizeRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Build a 20x4 matrix of rank 2: two independent columns duplicated.
	base := randMat(rng, 20, 2)
	a := NewMat(20, 4)
	for i := 0; i < 20; i++ {
		a.Set(i, 0, base.At(i, 0))
		a.Set(i, 1, base.At(i, 1))
		a.Set(i, 2, base.At(i, 0)*2)
		a.Set(i, 3, base.At(i, 1)-base.At(i, 0))
	}
	q, err := Orthonormalize(a, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	checkOrthonormalCols(t, q, 1e-8)
}

func TestSymEig(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := randMat(rng, 8, 8)
	a := Mul(b, b.T()) // SPD
	w, v, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	checkOrthonormalCols(t, v, 1e-9)
	recon := Mul(Mul(v, Diag(w)), v.T())
	if !recon.Equal(a, 1e-8) {
		t.Fatalf("V W Vᵀ != A (maxdiff %g)", recon.Sub(a).MaxAbs())
	}
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", w)
		}
	}
	for _, lambda := range w {
		if lambda < -1e-9 {
			t.Fatalf("SPD matrix produced negative eigenvalue %v", lambda)
		}
	}
}

func TestSymEigNonSquareRejected(t *testing.T) {
	if _, _, err := SymEig(NewMat(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestLUSolveAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randMat(rng, 9, 9)
	a.AddEye(3) // keep it comfortably nonsingular
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 9)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b := MulVec(a, x)
	got, err := f.SolveVec(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-9 {
			t.Fatalf("SolveVec[%d] = %v, want %v", i, got[i], x[i])
		}
	}
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Mul(a, inv).Equal(Eye(9), 1e-9) {
		t.Fatal("A * A⁻¹ != I")
	}
}

func TestFactorizeSingular(t *testing.T) {
	a := NewMat(3, 3) // all zeros
	if _, err := Factorize(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if _, err := Factorize(NewMat(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestKronKnown(t *testing.T) {
	a := NewMatFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatFrom(1, 2, []float64{0, 1})
	got := Kron(a, b)
	want := NewMatFrom(2, 4, []float64{
		0, 1, 0, 2,
		0, 3, 0, 4,
	})
	if !got.Equal(want, 0) {
		t.Fatalf("Kron = \n%v want \n%v", got, want)
	}
}

// Property (Theorem 3.1's underpinnings): the mixed-product property
// (A⊗B)(C⊗D) = (AC)⊗(BD), and (V⊗V)ᵀ = Vᵀ⊗Vᵀ.
func TestKronMixedProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q, s := 1+r.Intn(4), 1+r.Intn(4), 1+r.Intn(4)
		u, w := 1+r.Intn(4), 1+r.Intn(4)
		a, c := randMat(r, p, q), randMat(r, q, s)
		b, d := randMat(r, u, w), randMat(r, w, u)
		lhs := Mul(Kron(a, b), Kron(c, d))
		rhs := Kron(Mul(a, c), Mul(b, d))
		return lhs.Equal(rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	g := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randMat(r, 1+r.Intn(5), 1+r.Intn(5))
		return Kron(v, v).T().Equal(Kron(v.T(), v.T()), 1e-12)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property (Theorem 3.4's underpinnings): (A⊗B)vec(X) = vec(B X Aᵀ).
// vec stacks the columns of x, per the paper's Definition 2.1:
// vec(X)[j·rows+i] = X[i, j].
func vec(x *Mat) []float64 {
	v := make([]float64, 0, x.Rows*x.Cols)
	for j := 0; j < x.Cols; j++ {
		for i := 0; i < x.Rows; i++ {
			v = append(v, x.At(i, j))
		}
	}
	return v
}

func TestKronVecProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, q := 1+r.Intn(5), 1+r.Intn(5)
		s, u := 1+r.Intn(5), 1+r.Intn(5)
		a, b := randMat(r, p, q), randMat(r, s, u)
		x := randMat(r, u, q)
		lhs := MulVec(Kron(a, b), vec(x))
		rhs := vec(Mul(Mul(b, x), a.T()))
		if len(lhs) != len(rhs) {
			return false
		}
		for i := range lhs {
			if math.Abs(lhs[i]-rhs[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
