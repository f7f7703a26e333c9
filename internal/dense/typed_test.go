package dense

import (
	"math"
	"math/rand"
	"testing"
)

func randTyped(t *testing.T, rng *rand.Rand, rows, cols int) *Mat {
	t.Helper()
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestTypedF64Delegates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randTyped(t, rng, 137, 32)
	b := randTyped(t, rng, 9, 32)
	ty := TypedFromMat(a)
	if &ty.F64[0] != &a.Data[0] {
		t.Fatal("TypedFromMat copied instead of aliasing")
	}
	want := MulTInto(nil, a, b)
	got, _ := MulTTypedRowsInto(nil, ty, b, 0, ty.Rows, nil)
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("elem %d = %g, want %g (must be bitwise-identical)", i, got.Data[i], v)
		}
	}
}

// TestTypedQuantizedMatchesDequantReference checks that the banded typed
// GEMM is bitwise-equal to running the plain kernel over a fully
// dequantised copy — the quantisation error lives entirely in the stored
// codes, never in the kernel.
func TestTypedQuantizedMatchesDequantReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Rows > dequantBandRows to cross a band boundary.
	a := randTyped(t, rng, dequantBandRows+173, 24)
	b := randTyped(t, rng, 6, 24)
	for name, quant := range map[string]func(*Mat) (*Typed, []float64){
		"f32": QuantizeF32, "i8": QuantizeI8,
	} {
		ty, _ := quant(a)
		deq := NewMat(ty.Rows, ty.Cols)
		for i := 0; i < ty.Rows; i++ {
			ty.RowInto(i, deq.Row(i))
		}
		want := MulTInto(nil, deq, b)
		got, _ := MulTTypedRowsInto(nil, ty, b, 0, ty.Rows, nil)
		for i, v := range want.Data {
			if got.Data[i] != v {
				t.Fatalf("%s: elem %d = %g, want %g", name, i, got.Data[i], v)
			}
		}
	}
}

// TestRowsKernelsMatchWholeProduct holds the serial row-range entry point
// to the whole-matrix kernel (MulTInto over the dequantised rows) bit for
// bit, on every kind, for ranges that start and end inside dequantisation
// bands, with the output and the dequantisation scratch reused across calls — and checks that the
// reuse really allocates nothing.
func TestRowsKernelsMatchWholeProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randTyped(t, rng, 2*dequantBandRows+91, 24)
	b := randTyped(t, rng, 5, 24)
	f32, _ := QuantizeF32(a)
	i8, _ := QuantizeI8(a)
	ranges := [][2]int{{0, a.Rows}, {0, 0}, {7, 8}, {3, dequantBandRows + 2}, {dequantBandRows, 2 * dequantBandRows}, {a.Rows - 5, a.Rows}}
	for name, ty := range map[string]*Typed{"f64": TypedFromMat(a), "f32": f32, "i8": i8} {
		var out *Mat
		var deq []float64
		dequantised := NewMat(ty.Rows, ty.Cols)
		for i := 0; i < ty.Rows; i++ {
			ty.RowInto(i, dequantised.Row(i))
		}
		whole := MulTInto(nil, dequantised, b)
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			out, deq = MulTTypedRowsInto(out, ty, b, lo, hi, deq)
			if out.Rows != hi-lo || out.Cols != b.Rows {
				t.Fatalf("%s rows [%d, %d): shape %dx%d", name, lo, hi, out.Rows, out.Cols)
			}
			for i, v := range out.Data {
				if w := whole.Data[lo*b.Rows+i]; math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%s rows [%d, %d): elem %d = %g, whole product has %g", name, lo, hi, i, v, w)
				}
			}
		}
		if n := testing.AllocsPerRun(10, func() {
			out, deq = MulTTypedRowsInto(out, ty, b, 3, dequantBandRows+2, deq)
		}); n != 0 {
			t.Errorf("%s: %v allocations per call with reused out and scratch, want 0", name, n)
		}
	}
}

func TestQuantizeF32ErrorMeasured(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randTyped(t, rng, 300, 8)
	ty, errs := QuantizeF32(m)
	if ty.Kind != F32 || ty.Scale != nil {
		t.Fatalf("kind %v scale %v", ty.Kind, ty.Scale)
	}
	row := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j, v := range ty.RowInto(i, row) {
			e := math.Abs(m.Data[i*m.Cols+j] - v)
			if e > errs[j] {
				t.Fatalf("elem (%d,%d): error %g exceeds measured column bound %g", i, j, e, errs[j])
			}
		}
	}
}

func TestQuantizeI8ErrorWithinHalfScale(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := randTyped(t, rng, 400, 6)
	// A zero column and a constant column exercise the edge scales.
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+3] = 0
		m.Data[i*m.Cols+4] = 2.5
	}
	ty, errs := QuantizeI8(m)
	if ty.Kind != I8 || len(ty.Scale) != m.Cols {
		t.Fatalf("kind %v, %d scales", ty.Kind, len(ty.Scale))
	}
	if ty.Scale[3] != 0 || errs[3] != 0 {
		t.Fatalf("zero column: scale %g err %g", ty.Scale[3], errs[3])
	}
	row := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j, v := range ty.RowInto(i, row) {
			e := math.Abs(m.Data[i*m.Cols+j] - v)
			if e > errs[j] {
				t.Fatalf("elem (%d,%d): error %g exceeds measured bound %g", i, j, e, errs[j])
			}
			if errs[j] > ty.Scale[j]/2+1e-15 {
				t.Fatalf("col %d: measured error %g exceeds s/2 = %g", j, errs[j], ty.Scale[j]/2)
			}
		}
	}
}

func TestTypedAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := randTyped(t, rng, 50, 10)
	ty, _ := QuantizeI8(m)

	view := ty.SliceRowsView(10, 30)
	if view.Rows != 20 || view.Kind != I8 {
		t.Fatalf("view %dx%d kind %v", view.Rows, view.Cols, view.Kind)
	}
	want := ty.RowInto(10, make([]float64, ty.Cols))
	for j, v := range view.RowInto(0, make([]float64, ty.Cols)) {
		if v != want[j] {
			t.Fatalf("view row 0 col %d mismatch", j)
		}
	}

	got := make([]float64, ty.Cols)
	row := make([]float64, ty.Cols)
	for i := 0; i < ty.Rows; i++ {
		for j, v := range ty.RowInto(i, row) {
			got[j] = math.Max(got[j], math.Abs(v))
		}
	}
	for j, want := range ty.ColAbsMax() {
		if got[j] != want {
			t.Fatalf("ColAbsMax[%d] = %g, want %g", j, want, got[j])
		}
	}

	if got := ty.Bytes(); got != int64(ty.Rows*ty.Cols)+int64(ty.Cols)*8 {
		t.Fatalf("Bytes() = %d", got)
	}
	if F64.ElemSize() != 8 || F32.ElemSize() != 4 || I8.ElemSize() != 1 {
		t.Fatal("ElemSize mismatch")
	}
	if F64.String() != "f64" || F32.String() != "f32" || I8.String() != "int8" {
		t.Fatal("Kind.String mismatch")
	}
}
