package reftest

import (
	"math"
	"math/rand"
	"testing"

	"csrplus/internal/dense"
)

func randMat(rng *rand.Rand, r, c int) *dense.Mat {
	m := dense.NewMat(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// The references must agree with each other up to transposition and
// reordering tolerance: MulT(a, b) == Mul(a, bᵀ), TMul(a, b) == Mul(aᵀ, b).
func TestReferencesMutuallyConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randMat(rng, 17, 9), randMat(rng, 13, 9)
	if got, want := MulT(a, b), Mul(a, b.T()); !got.Equal(want, 1e-12) {
		t.Fatal("MulT disagrees with Mul against materialised transpose")
	}
	c := randMat(rng, 17, 13)
	if got, want := TMul(a, c), Mul(a.T(), c); !got.Equal(want, 1e-12) {
		t.Fatal("TMul disagrees with Mul against materialised transpose")
	}
}

// The whole point of the frozen references: zero times NaN or Inf is NaN
// and must reach the accumulator (the historical production kernels
// skipped zero multipliers and silently dropped it).
func TestReferencesPropagateNaNThroughZero(t *testing.T) {
	a := dense.NewMatFrom(1, 2, []float64{0, 0})
	b := dense.NewMatFrom(2, 1, []float64{math.NaN(), 1})
	if got := Mul(a, b).At(0, 0); !math.IsNaN(got) {
		t.Fatalf("Mul: 0*NaN accumulated to %v, want NaN", got)
	}
	bt := dense.NewMatFrom(1, 2, []float64{math.Inf(1), 1})
	if got := MulT(a, bt).At(0, 0); !math.IsNaN(got) {
		t.Fatalf("MulT: 0*Inf accumulated to %v, want NaN", got)
	}
	at := dense.NewMatFrom(2, 1, []float64{0, 0})
	bn := dense.NewMatFrom(2, 1, []float64{math.NaN(), 1})
	if got := TMul(at, bn).At(0, 0); !math.IsNaN(got) {
		t.Fatalf("TMul: 0*NaN accumulated to %v, want NaN", got)
	}
}

func TestTMulChunkedIsFixedReorderingOfSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randMat(rng, 103, 4), randMat(rng, 103, 3)
	serial := TMul(a, b)
	for _, chunk := range []int{1, 7, 50, 103, 200, 0} {
		got := TMulChunked(a, b, chunk)
		if !got.Equal(serial, 1e-12) {
			t.Fatalf("TMulChunked(chunk=%d) beyond rounding of serial", chunk)
		}
	}
	if got := TMulChunked(a, b, 0); !BitEqual(got, serial) {
		t.Fatal("TMulChunked(chunk<=0) must be the serial reference bitwise")
	}
}

func TestBitEqualDistinguishesSignedZeroAndAcceptsNaN(t *testing.T) {
	x := dense.NewMatFrom(1, 2, []float64{0, math.NaN()})
	y := dense.NewMatFrom(1, 2, []float64{math.Copysign(0, -1), math.NaN()})
	if BitEqual(x, y) {
		t.Fatal("BitEqual must distinguish +0 from -0")
	}
	y.Data[0] = 0
	if !BitEqual(x, y) {
		t.Fatal("BitEqual must treat NaN payloads as equal")
	}
	if i, j, ok := Diff(x, dense.NewMatFrom(1, 2, []float64{1, math.NaN()})); ok || i != 0 || j != 0 {
		t.Fatalf("Diff located (%d, %d, %v), want (0, 0, false)", i, j, ok)
	}
}

func TestCSRReferencesMatchDense(t *testing.T) {
	// 3x4 CSR: row0 {1@0, 2@2}, row1 {}, row2 {NaN@1, -0@3}
	rowptr := []int64{0, 2, 2, 4}
	colidx := []int32{0, 2, 1, 3}
	val := []float64{1, 2, math.NaN(), math.Copysign(0, -1)}
	md := dense.NewMat(3, 4)
	for i := 0; i < 3; i++ {
		for p := rowptr[i]; p < rowptr[i+1]; p++ {
			md.Set(i, int(colidx[p]), val[p])
		}
	}
	rng := rand.New(rand.NewSource(4))
	b := randMat(rng, 4, 3)
	if got, want := CSRMulDense(rowptr, colidx, val, 3, b), Mul(md, b); !got.Equal(want, 1e-12) {
		t.Fatal("CSRMulDense disagrees with dense Mul")
	}
	bt := randMat(rng, 3, 3)
	if got, want := CSRMulDenseT(rowptr, colidx, val, 3, 4, bt), TMul(md, bt); !got.Equal(want, 1e-12) {
		t.Fatal("CSRMulDenseT disagrees with dense TMul")
	}
	left := randMat(rng, 2, 3)
	if got, want := DenseMulCSR(left, rowptr, colidx, val, 4), Mul(left, md); !got.Equal(want, 1e-12) {
		t.Fatal("DenseMulCSR disagrees with dense Mul")
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Dot of unequal lengths did not panic")
		}
	}()
	Dot(make([]float64, 2), make([]float64, 3))
}
