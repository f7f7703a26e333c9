package dense_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/dense/reftest"
	"csrplus/internal/par"
)

// The column-major QR is admitted the way the tiled GEMMs were: by
// reproducing the frozen row-major loop in reftest bit for bit — Q and R,
// at every shape class, on inputs that cross every IEEE corner the
// reflector arithmetic has, at every worker count.

// qrBitEq runs dense.QRThin on a and holds Q and R bitwise to reftest.QRThin.
func qrBitEq(t *testing.T, what string, a *dense.Mat) {
	t.Helper()
	q, r, err := dense.QRThin(a)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	wantQ, wantR := reftest.QRThin(a)
	bitEq(t, what+": Q", q, wantQ)
	bitEq(t, what+": R", r, wantR)
}

// qrInputs builds one m×n input per corner of the reflector arithmetic.
// Each starts from unit normals so the corner sits among ordinary values.
func qrInputs(rng *rand.Rand, m, n int) map[string]*dense.Mat {
	last, mid := n-1, n/2
	edit := func(f func(a *dense.Mat)) *dense.Mat {
		a := randMat(rng, m, n)
		f(a)
		return a
	}
	setCol := func(a *dense.Mat, j int, f func(i int) float64) {
		for i := 0; i < a.Rows; i++ {
			a.Set(i, j, f(i))
		}
	}
	return map[string]*dense.Mat{
		"normals": edit(func(*dense.Mat) {}),
		"zero column": edit(func(a *dense.Mat) {
			setCol(a, mid, func(int) float64 { return 0 })
		}),
		"all zero": dense.NewMat(m, n),
		"rank deficient": edit(func(a *dense.Mat) {
			// last column = 2·first − middle: its reflector is built from
			// rounding residue, or from exact zeros when mid == 0.
			setCol(a, last, func(i int) float64 { return 2*a.At(i, 0) - a.At(i, mid) })
		}),
		"duplicate columns": edit(func(a *dense.Mat) {
			setCol(a, last, func(i int) float64 { return a.At(i, 0) })
		}),
		"negative leading entries": edit(func(a *dense.Mat) {
			for j := 0; j < n; j++ {
				a.Set(j, j, -math.Abs(a.At(j, j))-1)
			}
		}),
		"negative zero diagonal": edit(func(a *dense.Mat) {
			for j := 0; j < n; j++ {
				a.Set(j, j, math.Copysign(0, -1))
			}
		}),
		// A NaN in the first column poisons every reflector; one in the
		// last column leaves reflectors 0..n-2 finite, which is the case
		// the dorg2r triangle must hand back to the full square.
		"NaN in first column": edit(func(a *dense.Mat) { a.Set(m-1, 0, math.NaN()) }),
		"NaN in last column":  edit(func(a *dense.Mat) { a.Set(m-1, last, math.NaN()) }),
		"NaN in middle column, above the diagonal": edit(func(a *dense.Mat) {
			a.Set(0, mid, math.NaN())
		}),
		"+Inf in last column":   edit(func(a *dense.Mat) { a.Set(m/2, last, math.Inf(1)) }),
		"-Inf in middle column": edit(func(a *dense.Mat) { a.Set(m-1, mid, math.Inf(-1)) }),
		// Finite inputs whose squares overflow: normx = +Inf, v₁ = ±Inf,
		// so the reflector tail is all zeros and beta is NaN.
		"overflowing norm": edit(func(a *dense.Mat) {
			setCol(a, last, func(i int) float64 { return 1e200 * float64(1+i%3) })
		}),
		// Squares underflow to zero: the column is non-zero but its
		// reflector is left out, exactly like an all-zero one.
		"underflowing norm": edit(func(a *dense.Mat) {
			setCol(a, mid, func(int) float64 { return 1e-200 })
		}),
		"IEEE specials everywhere": ieeeMat(rng, m, n),
	}
}

// TestQRThinMatchesReferenceBitwise sweeps the shape classes — square,
// single column, single element, ordinary thin — over every corner input,
// all below the parallel threshold: this pins the serial kernel.
func TestQRThinMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, sh := range [][2]int{{1, 1}, {6, 6}, {17, 1}, {9, 4}, {40, 7}, {64, 24}} {
		for name, a := range qrInputs(rng, sh[0], sh[1]) {
			qrBitEq(t, fmt.Sprintf("%dx%d %s", sh[0], sh[1], name), a)
		}
	}
}

// TestQRThinParallelMatchesReferenceBitwise repeats the corner sweep at a
// shape whose first reflector applications clear par.DefaultThreshold
// (4·11·32768 ≈ 1.4M), at a worker count that splits the columns
// unevenly, and then runs the serving sketch shape (m ≫ n, 2¹⁶ × 24)
// against the reference once.
func TestQRThinParallelMatchesReferenceBitwise(t *testing.T) {
	prev := par.SetMaxWorkers(3)
	defer par.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(73))
	for name, a := range qrInputs(rng, 1<<15, 12) {
		qrBitEq(t, "32768x12 "+name, a)
	}
	if testing.Short() {
		t.Skip("65536x24 reference run skipped in -short")
	}
	qrBitEq(t, "65536x24 normals", randMat(rng, 1<<16, 24))
}

// TestQRThinWorkerCountInvariant: one column per par.Do index and no
// reduction across workers, so Q and R are the same bits at any count.
func TestQRThinWorkerCountInvariant(t *testing.T) {
	a := randMat(rand.New(rand.NewSource(79)), 1<<16, 24)
	prev := par.SetMaxWorkers(1)
	defer par.SetMaxWorkers(prev)
	wantQ, wantR, err := dense.QRThin(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 7} {
		par.SetMaxWorkers(w)
		q, r, err := dense.QRThin(a)
		if err != nil {
			t.Fatal(err)
		}
		bitEq(t, fmt.Sprintf("workers=%d: Q", w), q, wantQ)
		bitEq(t, fmt.Sprintf("workers=%d: R", w), r, wantR)
	}
}

// TestOrthonormalizeMatchesReferenceBitwise holds the deficient-column
// repair — now dots and axpys down the column-major Q — to the frozen
// row-major one, on inputs that trigger it (zero, duplicate and dependent
// columns) and inputs that do not, serial and parallel.
func TestOrthonormalizeMatchesReferenceBitwise(t *testing.T) {
	prev := par.SetMaxWorkers(3)
	defer par.SetMaxWorkers(prev)
	rng := rand.New(rand.NewSource(83))
	check := func(what string, a *dense.Mat) {
		t.Helper()
		for _, tol := range []float64{0, 1e-6} {
			got, err := dense.Orthonormalize(a, tol)
			if err != nil {
				t.Fatal(err)
			}
			bitEq(t, fmt.Sprintf("%s tol=%g", what, tol), got, reftest.Orthonormalize(a, tol))
			bitEq(t, fmt.Sprintf("%s tol=%g, into a panel", what, tol), orthonormalizeInto(t, a, tol), got)
		}
	}
	for _, sh := range [][2]int{{1, 1}, {6, 6}, {40, 7}} {
		for name, a := range qrInputs(rng, sh[0], sh[1]) {
			check(fmt.Sprintf("%dx%d %s", sh[0], sh[1], name), a)
		}
	}
	// A non-finite Q makes the repair try all m coordinate vectors, so the
	// parallel shape takes only the inputs whose repair terminates early.
	big := qrInputs(rng, 1<<15, 12)
	for _, name := range []string{"normals", "zero column", "duplicate columns"} {
		check("32768x12 "+name, big[name])
	}
}

// orthonormalizeInto runs the consuming form on a copy of a and a dirty,
// oversized panel, and checks the result lives at the panel's head.
func orthonormalizeInto(t *testing.T, a *dense.Mat, tol float64) *dense.Mat {
	t.Helper()
	panel := make([]float64, len(a.Data)+3)
	for i := range panel {
		panel[i] = math.NaN()
	}
	q, err := dense.OrthonormalizeInto(a.Clone(), panel, tol)
	if err != nil {
		t.Fatal(err)
	}
	if q.Rows != a.Rows || q.Cols != a.Cols || len(q.Data) != len(a.Data) || (len(q.Data) > 0 && &q.Data[0] != &panel[0]) {
		t.Fatalf("OrthonormalizeInto returned %dx%d outside the panel it was given", q.Rows, q.Cols)
	}
	return q
}

// FuzzQRThin explores the same contract with raw-bit payloads: garbage
// exponents, NaNs, infinities and signed zeros at fuzzer-chosen positions.
func FuzzQRThin(f *testing.F) {
	for _, raw := range fuzzSeeds {
		f.Add(uint8(0), uint8(5), uint8(1), raw)  // square
		f.Add(uint8(13), uint8(1), uint8(2), raw) // one column
		f.Add(uint8(20), uint8(9), uint8(0), raw) // thin
	}
	f.Fuzz(func(t *testing.T, extra, cols, workers uint8, raw []byte) {
		n := 1 + int(cols)%fuzzDims
		m := n + int(extra)%(2*fuzzDims)
		a := matFromBytes(m, n, raw, 0)
		prevW := par.SetMaxWorkers(1 + int(workers)%4)
		defer par.SetMaxWorkers(prevW)
		q, r, err := dense.QRThin(a)
		if err != nil {
			t.Fatal(err)
		}
		wantQ, wantR := reftest.QRThin(a)
		fuzzBitEq(t, "QRThin Q vs reftest.QRThin", q, wantQ)
		fuzzBitEq(t, "QRThin R vs reftest.QRThin", r, wantR)
		got, err := dense.Orthonormalize(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		fuzzBitEq(t, "Orthonormalize vs reftest.Orthonormalize", got, reftest.Orthonormalize(a, 0))
		fuzzBitEq(t, "OrthonormalizeInto vs Orthonormalize", orthonormalizeInto(t, a, 0), got)
	})
}
