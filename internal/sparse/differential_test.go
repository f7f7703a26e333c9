package sparse

import (
	"math"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/dense/reftest"
	"csrplus/internal/par"
)

// Differential tests and fuzzing of the SpMM kernels against the frozen
// CSR references in internal/dense/reftest (which take raw CSR arrays
// precisely so this package can use them without an import cycle).

// csrFromBytes deterministically builds an r×c CSR from fuzz bytes: one
// presence bit per cell (columns ascending within each row, as the
// format requires) and an 8-byte float64 bit pattern per stored value —
// so stored values include NaNs, infinities, ±0 and subnormals.
func csrFromBytes(r, c int, raw []byte) *CSR {
	m := &CSR{rows: r, cols: c, RowPtr: make([]int64, r+1)}
	if len(raw) == 0 {
		return m
	}
	bit, vals := 0, 0
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if raw[(bit/8)%len(raw)]>>(bit%8)&1 == 1 {
				var bits uint64
				for b := 0; b < 8; b++ {
					bits |= uint64(raw[(vals*8+b+3)%len(raw)]) << (8 * uint(b))
				}
				vals++
				m.ColIdx = append(m.ColIdx, int32(j))
				m.Val = append(m.Val, math.Float64frombits(bits))
			}
			bit++
		}
		m.RowPtr[i+1] = int64(len(m.ColIdx))
	}
	return m
}

// fuzzMat mirrors the dense fuzz helper: raw bytes as float64 bits.
func fuzzMat(r, c int, raw []byte, phase int) *dense.Mat {
	m := dense.NewMat(r, c)
	if len(raw) == 0 {
		return m
	}
	for i := range m.Data {
		var bits uint64
		for b := 0; b < 8; b++ {
			bits |= uint64(raw[(phase+i*8+b)%len(raw)]) << (8 * uint(b))
		}
		m.Data[i] = math.Float64frombits(bits)
	}
	return m
}

func sparseBitEq(t *testing.T, what string, got, want *dense.Mat) {
	t.Helper()
	if i, j, ok := reftest.Diff(got, want); !ok {
		t.Errorf("%s: first difference at (%d, %d)", what, i, j)
	}
}

// TestSparseKernelsMatchReferenceBitwise holds the parallel-sized SpMM
// kernels bitwise to the reftest references at several worker counts —
// the reference comparison the worker-invariance tests alone don't give.
func TestSparseKernelsMatchReferenceBitwise(t *testing.T) {
	m, _, b, bT, left := parallelCSR(59)
	wantMul := reftest.CSRMulDense(m.RowPtr, m.ColIdx, m.Val, m.rows, b)
	wantMulT := reftest.CSRMulDenseT(m.RowPtr, m.ColIdx, m.Val, m.rows, m.cols, bT)
	wantRight := reftest.DenseMulCSR(left, m.RowPtr, m.ColIdx, m.Val, m.cols)
	for _, w := range []int{1, 2, 3, 7} {
		prev := par.SetMaxWorkers(w)
		sparseBitEq(t, "MulDense", m.MulDense(b), wantMul)
		sparseBitEq(t, "MulDenseT", m.MulDenseT(bT), wantMulT)
		sparseBitEq(t, "DenseMulCSR", DenseMulCSR(left, m), wantRight)
		par.SetMaxWorkers(prev)
	}
}

// TestDenseMulCSRZeroTimesNaNRegression pins the zero-skip fix: a zero
// row of b against a CSR holding NaN must produce NaN (0·NaN), not 0 —
// the historical kernel skipped zero b values and hid index-range bugs
// behind dropped NaNs. Rows 1..4 exercise both the 4-row tile and the
// edge loop.
func TestDenseMulCSRZeroTimesNaNRegression(t *testing.T) {
	coo := NewCOO(2, 2)
	if err := coo.Add(0, 0, math.NaN()); err != nil {
		t.Fatal(err)
	}
	if err := coo.Add(1, 1, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	m := coo.ToCSR()
	for rows := 1; rows <= 4; rows++ {
		b := dense.NewMat(rows, 2) // all zeros
		out := DenseMulCSR(b, m)
		for i := 0; i < rows; i++ {
			if !math.IsNaN(out.At(i, 0)) {
				t.Fatalf("rows=%d: 0·NaN gave %v at (%d,0), want NaN", rows, out.At(i, 0), i)
			}
			if !math.IsNaN(out.At(i, 1)) {
				t.Fatalf("rows=%d: 0·Inf gave %v at (%d,1), want NaN", rows, out.At(i, 1), i)
			}
		}
	}
}
