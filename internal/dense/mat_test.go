package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, r, c int) *Mat {
	m := NewMat(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestNewMatZeroed(t *testing.T) {
	m := NewMat(3, 4)
	if !m.IsShape(3, 4) {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewMatNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMat(-1, 2) did not panic")
		}
	}()
	NewMat(-1, 2)
}

func TestNewMatFromLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatFrom with wrong length did not panic")
		}
	}()
	NewMatFrom(2, 2, []float64{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	if got := m.Row(1)[2]; got != 7 {
		t.Fatalf("Row(1)[2] = %v, want 7", got)
	}
}

func TestEyeAndDiag(t *testing.T) {
	e := Eye(3)
	d := Diag([]float64{1, 1, 1})
	if !e.Equal(d, 0) {
		t.Fatalf("Eye(3) != Diag(1,1,1)")
	}
	if e.At(0, 1) != 0 || e.At(2, 2) != 1 {
		t.Fatalf("Eye(3) wrong entries")
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMat(rng, 67, 131) // exercise the blocked path across block edges
	mt := m.T()
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatalf("T mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !m.T().T().Equal(m, 0) {
		t.Fatal("T is not an involution")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMatFrom(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestScaleAddSub(t *testing.T) {
	a := NewMatFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewMatFrom(2, 2, []float64{4, 3, 2, 1})
	sum := a.Clone().AddInPlace(b)
	want := NewMatFrom(2, 2, []float64{5, 5, 5, 5})
	if !sum.Equal(want, 0) {
		t.Fatalf("AddInPlace = %v", sum)
	}
	if diff := sum.Sub(b); !diff.Equal(a, 0) {
		t.Fatalf("Sub = %v", diff)
	}
	if sc := a.Clone().Scale(2); sc.At(1, 1) != 8 {
		t.Fatalf("Scale: got %v", sc.At(1, 1))
	}
}

func TestAddEye(t *testing.T) {
	a := NewMat(3, 3)
	a.AddEye(2.5)
	for i := 0; i < 3; i++ {
		if a.At(i, i) != 2.5 {
			t.Fatalf("diag[%d] = %v", i, a.At(i, i))
		}
	}
}

func TestAddEyeNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEye on non-square did not panic")
		}
	}()
	NewMat(2, 3).AddEye(1)
}

func TestColSetCol(t *testing.T) {
	m := NewMatFrom(3, 2, []float64{1, 2, 3, 4, 5, 6})
	c := m.Col(1, nil)
	if c[0] != 2 || c[1] != 4 || c[2] != 6 {
		t.Fatalf("Col(1) = %v", c)
	}
	m.SetCol(0, []float64{9, 9, 9})
	if m.At(2, 0) != 9 {
		t.Fatal("SetCol failed")
	}
}

func TestSliceRows(t *testing.T) {
	m := NewMatFrom(4, 2, []float64{0, 1, 10, 11, 20, 21, 30, 31})
	s := m.SliceRows(1, 3)
	if !s.Equal(NewMatFrom(2, 2, []float64{10, 11, 20, 21}), 0) {
		t.Fatalf("SliceRows = %v", s)
	}
}

func TestNorms(t *testing.T) {
	m := NewMatFrom(2, 2, []float64{3, 0, 0, -4})
	if got := m.FrobNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("FrobNorm = %v, want 5", got)
	}
	if got := m.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v, want 4", got)
	}
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}

func TestHasNaN(t *testing.T) {
	m := NewMat(1, 2)
	if m.HasNaN() {
		t.Fatal("zero matrix reported NaN")
	}
	m.Set(0, 1, math.Inf(1))
	if !m.HasNaN() {
		t.Fatal("Inf not detected")
	}
}

func naiveMul(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {7, 7, 7}, {16, 1, 16}, {33, 17, 9}} {
		a := randMat(rng, dims[0], dims[1])
		b := randMat(rng, dims[1], dims[2])
		if got, want := Mul(a, b), naiveMul(a, b); !got.Equal(want, 1e-12) {
			t.Fatalf("Mul mismatch at dims %v", dims)
		}
	}
}

func TestMulParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 130, 120)
	b := randMat(rng, 120, 110)
	if got, want := Mul(a, b), naiveMul(a, b); !got.Equal(want, 1e-10) {
		t.Fatal("parallel Mul mismatch")
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with bad shapes did not panic")
		}
	}()
	Mul(NewMat(2, 3), NewMat(4, 2))
}

func TestMulTAndTMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 6, 8)
	b := randMat(rng, 5, 8)
	if got, want := MulT(a, b), Mul(a, b.T()); !got.Equal(want, 1e-12) {
		t.Fatal("MulT mismatch")
	}
	c := randMat(rng, 6, 4)
	if got, want := TMul(a, c), Mul(a.T(), c); !got.Equal(want, 1e-12) {
		t.Fatal("TMul mismatch")
	}
}

func TestMulVecDotAxpy(t *testing.T) {
	a := NewMatFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	y := MulVec(a, []float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	v := []float64{1, 1}
	Axpy(2, []float64{1, 2}, v)
	if v[0] != 3 || v[1] != 5 {
		t.Fatalf("Axpy = %v", v)
	}
	ScaleVec(0.5, v)
	if v[0] != 1.5 {
		t.Fatalf("ScaleVec = %v", v)
	}
}

// Property: (A*B)*C == A*(B*C) on small random matrices.
func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		p := 1 + r.Intn(8)
		q := 1 + r.Intn(8)
		s := 1 + r.Intn(8)
		a, b, c := randMat(r, n, p), randMat(r, p, q), randMat(r, q, s)
		return Mul(Mul(a, b), c).Equal(Mul(a, Mul(b, c)), 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose reverses products, (AB)ᵀ = BᵀAᵀ.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, p, q := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a, b := randMat(r, n, p), randMat(r, p, q)
		return Mul(a, b).T().Equal(Mul(b.T(), a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
