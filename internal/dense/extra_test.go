package dense

import (
	"math/rand"
	"strings"
	"testing"
)

func TestStringSmallAndLarge(t *testing.T) {
	small := NewMatFrom(1, 2, []float64{1.5, -2})
	if s := small.String(); !strings.Contains(s, "1.5") {
		t.Fatalf("String() = %q", s)
	}
	big := NewMat(50, 50)
	if s := big.String(); !strings.Contains(s, "Mat(50x50)") {
		t.Fatalf("large String() = %q", s)
	}
}

func TestColReuseBuffer(t *testing.T) {
	m := NewMatFrom(2, 2, []float64{1, 2, 3, 4})
	buf := make([]float64, 2)
	got := m.Col(1, buf)
	if &got[0] != &buf[0] {
		t.Fatal("Col did not reuse buffer")
	}
	if got[0] != 2 || got[1] != 4 {
		t.Fatalf("Col = %v", got)
	}
}

func TestSliceRowsPanics(t *testing.T) {
	m := NewMat(3, 2)
	for _, c := range [][2]int{{-1, 2}, {0, 4}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SliceRows(%d, %d) did not panic", c[0], c[1])
				}
			}()
			m.SliceRows(c[0], c[1])
		}()
	}
}

func TestBinaryOpShapePanics(t *testing.T) {
	a := NewMat(2, 3)
	b := NewMat(3, 2)
	cases := []struct {
		name string
		f    func()
	}{
		{"AddInPlace", func() { a.Clone().AddInPlace(b) }},
		{"Sub", func() { a.Sub(b) }},
		{"MulT", func() { MulT(a, NewMat(2, 4)) }},
		{"TMul", func() { TMul(a, NewMat(3, 2)) }},
		{"MulVec", func() { MulVec(a, make([]float64, 2)) }},
		{"Dot", func() { Dot(make([]float64, 2), make([]float64, 3)) }},
		{"Axpy", func() { Axpy(1, make([]float64, 2), make([]float64, 3)) }},
		{"Unvec", func() { Unvec(make([]float64, 5), 2, 3) }},
		{"ScaleColumns-mismatch", func() { NewMat(2, 2).Set(9, 9, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if NewMat(2, 2).Equal(NewMat(2, 3), 1) {
		t.Fatal("different shapes reported equal")
	}
}

func TestBytes(t *testing.T) {
	if got := NewMat(3, 4).Bytes(); got != 3*4*8 {
		t.Fatalf("Bytes = %d", got)
	}
}

func TestFrobNormEmptyAndLarge(t *testing.T) {
	if NewMat(0, 0).FrobNorm() != 0 {
		t.Fatal("empty FrobNorm != 0")
	}
	// Scaled accumulation must survive entries near overflow.
	m := NewMatFrom(1, 2, []float64{1e200, 1e200})
	got := m.FrobNorm()
	if got <= 1e200 || got > 1e201 {
		t.Fatalf("FrobNorm = %g", got)
	}
}

func TestLUSolveVecLengthMismatch(t *testing.T) {
	f, err := Factorize(Eye(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SolveVec(make([]float64, 2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := f.Solve(NewMat(2, 2)); err == nil {
		t.Fatal("rhs shape mismatch accepted")
	}
}

func TestLUSolveMatrixRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	a := randMat(rng, 6, 6)
	a.AddEye(4)
	x := randMat(rng, 6, 3)
	b := Mul(a, x)
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(x, 1e-9) {
		t.Fatal("matrix solve wrong")
	}
}

func TestOrthonormalizeDefaultTolAndZero(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	a := randMat(rng, 10, 3)
	q, err := Orthonormalize(a, 0) // default tol path
	if err != nil {
		t.Fatal(err)
	}
	checkOrthonormalCols(t, q, 1e-9)
	// All-zero input: r00 == 0 fallback plus column substitution.
	z, err := Orthonormalize(NewMat(5, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	checkOrthonormalCols(t, z, 1e-9)
}

func TestKronEmptyAndIdentity(t *testing.T) {
	// I ⊗ I = I.
	if !Kron(Eye(2), Eye(3)).Equal(Eye(6), 0) {
		t.Fatal("I ⊗ I != I")
	}
}

func TestMulTransposeIdentity(t *testing.T) {
	// QᵀQ for orthonormal-column Q built by Orthonormalize.
	rng := rand.New(rand.NewSource(82))
	a := randMat(rng, 12, 4)
	q, err := Orthonormalize(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !TMul(q, q).Equal(Eye(4), 1e-10) {
		t.Fatal("QᵀQ != I")
	}
}
