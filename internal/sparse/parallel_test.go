package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/par"
)

// parallelCSR builds a fixture big enough to clear par.DefaultThreshold
// (2^20 flops) on every kernel under test: nnz ≈ 90k, 24 dense columns
// → ≈ 2.2M flops. b is shaped for MulDense (m·b), bT for MulDenseT
// (mᵀ·bT), left for DenseMulCSR (left·m).
func parallelCSR(seed int64) (m *CSR, ref, b, bT, left *dense.Mat) {
	rng := rand.New(rand.NewSource(seed))
	m, ref = randCSR(rng, 600, 500, 0.3)
	b = dense.NewMat(500, 24)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	bT = dense.NewMat(600, 24)
	for i := range bT.Data {
		bT.Data[i] = rng.NormFloat64()
	}
	left = dense.NewMat(24, 600)
	for i := range left.Data {
		left.Data[i] = rng.NormFloat64()
	}
	return
}

// hubFixture is the hub-heavy matrix of the MulDense table (half of its
// entries in the first 3 % of its rows, so an entry-balanced row split cuts
// nowhere near the middle) with 24-column operands for m·b and mᵀ·bT; both
// products clear the parallel threshold.
func hubFixture() (m *CSR, b, bT *dense.Mat) {
	m = hubCSR()
	rng := rand.New(rand.NewSource(71))
	b, bT = dense.NewMat(m.cols, 24), dense.NewMat(m.rows, 24)
	for _, d := range []*dense.Mat{b, bT} {
		for i := range d.Data {
			d.Data[i] = rng.NormFloat64()
		}
	}
	return m, b, bT
}

// TestMulVecWorkerCountInvariant: MulVec fans out past a million entries,
// split where MulDenseInto's rows are, and returns the serial loop's bits
// at every worker count.
func TestMulVecWorkerCountInvariant(t *testing.T) {
	const rows, cols = 1200, 1000
	rng := rand.New(rand.NewSource(73))
	rowPtr := make([]int64, rows+1)
	var colIdx []int32
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if i < 1000 || j%4 == 0 { // full rows, then quarter-full ones
				colIdx = append(colIdx, int32(j))
			}
		}
		rowPtr[i+1] = int64(len(colIdx))
	}
	val := make([]float64, len(colIdx))
	for p := range val {
		val[p] = rng.NormFloat64()
	}
	m, err := NewCSR(rows, cols, rowPtr, colIdx, val)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() < par.DefaultThreshold {
		t.Fatalf("fixture holds %d entries, under the parallel threshold", m.NNZ())
	}
	x := make([]float64, cols)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	want := make([]float64, rows)
	for i := range want {
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			want[i] += val[p] * x[colIdx[p]]
		}
	}
	for _, w := range []int{1, 2, 3, 8} {
		prev := par.SetMaxWorkers(w)
		got := m.MulVec(x, nil)
		par.SetMaxWorkers(prev)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d workers: y[%d] = %v, serial loop gives %v", w, i, got[i], want[i])
			}
		}
	}
}

// serialScatterMulDenseT is the pre-parallelisation MulDenseT loop: a
// column scatter that walks rows of m in ascending order. The parallel
// path (Transpose().MulDense) must match it bitwise, because Transpose
// emits each output row's entries in exactly this ascending-row order.
func serialScatterMulDenseT(m *CSR, b *dense.Mat) *dense.Mat {
	rows, cols := m.Dims()
	out := dense.NewMat(cols, b.Cols)
	for i := 0; i < rows; i++ {
		bi := b.Row(i)
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			j, v := m.ColIdx[p], m.Val[p]
			oj := out.Row(int(j))
			for k, bv := range bi {
				oj[k] += v * bv
			}
		}
	}
	return out
}

// TestMulDenseTParallelMatchesSerialScatterBitwise holds the three ways of
// forming mᵀ·b — the serial scatter, MulDenseT on each of its paths, and
// MulDense on a transpose built once, which is what the truncated SVD does —
// to the same bits, on a dense fixture and on one whose empty rows and
// columns leave output rows that no entry ever touches.
func TestMulDenseTParallelMatchesSerialScatterBitwise(t *testing.T) {
	full, _, _, bT, _ := parallelCSR(41)
	// Every fifth row and every seventh column emptied: still ≈ 61k entries,
	// so the 24-column product clears the parallel threshold.
	coo := NewCOO(full.rows, full.cols)
	for i := 0; i < full.rows; i++ {
		for p := full.RowPtr[i]; p < full.RowPtr[i+1]; p++ {
			if j := int(full.ColIdx[p]); i%5 != 0 && j%7 != 0 {
				if err := coo.Add(i, j, full.Val[p]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	holed := coo.ToCSR()
	if _, rows, cols := holed.Support(); len(rows) != full.rows-full.rows/5 || len(cols) != full.cols-(full.cols+6)/7 {
		t.Fatalf("fixture keeps %d rows and %d columns", len(rows), len(cols))
	}
	if flops := holed.NNZ() * int64(bT.Cols); flops < par.DefaultThreshold {
		t.Fatalf("fixture's product is %d flops, under the parallel threshold", flops)
	}
	for name, m := range map[string]*CSR{"full": full, "holed": holed} {
		want := serialScatterMulDenseT(m, bT)

		// Force the serial scatter branch inside MulDenseT...
		prev := par.SetMaxWorkers(1)
		serial := m.MulDenseT(bT)
		// ...then the transpose+row-parallel branch.
		par.SetMaxWorkers(4)
		parallel := m.MulDenseT(bT)
		once := m.Transpose().MulDense(bT)
		par.SetMaxWorkers(prev)

		sparseBitEq(t, name+": single-worker MulDenseT vs reference scatter", serial, want)
		sparseBitEq(t, name+": transpose-parallel MulDenseT vs reference scatter", parallel, want)
		sparseBitEq(t, name+": Transpose().MulDense vs reference scatter", once, want)
	}
}

// TestSparseKernelsWorkerCountInvariant checks every parallelised sparse
// kernel returns identical bits at any worker count.
func TestSparseKernelsWorkerCountInvariant(t *testing.T) {
	m, _, b, bT, left := parallelCSR(43)
	hubs, hb, hbT := hubFixture()
	kernels := map[string]func() *dense.Mat{
		"MulDense":       func() *dense.Mat { return m.MulDense(b) },
		"MulDenseT":      func() *dense.Mat { return m.MulDenseT(bT) },
		"DenseMulCSR":    func() *dense.Mat { return DenseMulCSR(left, m) },
		"MulDense/hubs":  func() *dense.Mat { return hubs.MulDense(hb) },
		"MulDenseT/hubs": func() *dense.Mat { return hubs.MulDenseT(hbT) },
	}
	for name, kern := range kernels {
		prev := par.SetMaxWorkers(1)
		want := kern()
		for _, w := range []int{2, 3, 8} {
			par.SetMaxWorkers(w)
			if got := kern(); !got.Equal(want, 0) {
				par.SetMaxWorkers(prev)
				t.Fatalf("%s: %d-worker result differs from 1-worker result", name, w)
			}
		}
		par.SetMaxWorkers(prev)
	}
}

// TestSparseKernelsGOMAXPROCSDeterminism is the satellite requirement:
// GOMAXPROCS=1 and GOMAXPROCS=N produce equal results for every
// parallelised kernel.
func TestSparseKernelsGOMAXPROCSDeterminism(t *testing.T) {
	m, _, b, bT, left := parallelCSR(47)
	hubs, hb, hbT := hubFixture()
	kernels := map[string]func() *dense.Mat{
		"MulDense":       func() *dense.Mat { return m.MulDense(b) },
		"MulDenseT":      func() *dense.Mat { return m.MulDenseT(bT) },
		"DenseMulCSR":    func() *dense.Mat { return DenseMulCSR(left, m) },
		"MulDense/hubs":  func() *dense.Mat { return hubs.MulDense(hb) },
		"MulDenseT/hubs": func() *dense.Mat { return hubs.MulDenseT(hbT) },
	}
	for name, kern := range kernels {
		old := runtime.GOMAXPROCS(1)
		want := kern()
		runtime.GOMAXPROCS(8)
		got := kern()
		runtime.GOMAXPROCS(old)
		if !got.Equal(want, 0) {
			t.Fatalf("%s: GOMAXPROCS=8 result differs from GOMAXPROCS=1", name)
		}
	}
}

func TestDenseMulCSRParallelMatchesDenseReference(t *testing.T) {
	m, ref, _, _, left := parallelCSR(53)
	got := DenseMulCSR(left, m)
	want := dense.Mul(left, ref)
	if !got.Equal(want, 1e-10) {
		t.Fatal("parallel DenseMulCSR differs from dense reference")
	}
}

// --- Kernel benchmarks (CI smoke-runs these with -benchtime=1x). ---

func benchCSR(b *testing.B, cols int) (*CSR, *dense.Mat) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	m, _ := randCSR(rng, 3000, 3000, 0.02) // nnz ≈ 180k
	d := dense.NewMat(3000, cols)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return m, d
}

func BenchmarkKernelMulDense(b *testing.B) {
	m, d := benchCSR(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulDense(d)
	}
}

func BenchmarkKernelMulDenseT(b *testing.B) {
	m, d := benchCSR(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulDenseT(d)
	}
}

func BenchmarkKernelDenseMulCSR(b *testing.B) {
	m, _ := benchCSR(b, 32)
	rng := rand.New(rand.NewSource(2))
	left := dense.NewMat(32, 3000)
	for i := range left.Data {
		left.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DenseMulCSR(left, m)
	}
}
