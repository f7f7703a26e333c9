package dense_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/dense/reftest"
	"csrplus/internal/par"
)

// randMat fills a fresh matrix with unit normals. (The internal test
// package has its own copy; external test files cannot share it.)
func randMat(rng *rand.Rand, r, c int) *dense.Mat {
	m := dense.NewMat(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// bitEq fails the test with the first differing element if got is not
// bitwise-equivalent to want (NaN ≡ NaN, ±0 distinct).
func bitEq(t *testing.T, what string, got, want *dense.Mat) {
	t.Helper()
	if i, j, ok := reftest.Diff(got, want); !ok {
		if i < 0 {
			t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		t.Fatalf("%s: first difference at (%d, %d): got %v (% x), want %v (% x)",
			what, i, j, got.At(i, j), math.Float64bits(got.At(i, j)),
			want.At(i, j), math.Float64bits(want.At(i, j)))
	}
}

// Shapes chosen to clear par.DefaultThreshold (2^20 flops) so the
// parallel paths actually run: 3000*64*16 ≈ 3.1M, 60000*16*16 ≈ 15M.
func parallelFixtures(seed int64) (aWide, bWide, aTall, bTall *dense.Mat) {
	rng := rand.New(rand.NewSource(seed))
	aWide, bWide = randMat(rng, 3000, 16), randMat(rng, 64, 16)
	aTall, bTall = randMat(rng, 60000, 16), randMat(rng, 60000, 16)
	return
}

func TestMulTParallelMatchesReferenceBitwise(t *testing.T) {
	a, b, _, _ := parallelFixtures(11)
	bitEq(t, "parallel MulT vs reftest.MulT", dense.MulT(a, b), reftest.MulT(a, b))
}

// relEqual reports element-wise agreement within a relative-ish epsilon
// scaled by the larger magnitude (an ulp-style bound for reordered sums).
func relEqual(x, y *dense.Mat, eps float64) bool {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return false
	}
	for i, v := range x.Data {
		w := y.Data[i]
		scale := math.Max(1, math.Max(math.Abs(v), math.Abs(w)))
		if math.Abs(v-w) > eps*scale {
			return false
		}
	}
	return true
}

func TestTMulParallelMatchesChunkedReferenceBitwise(t *testing.T) {
	_, _, a, b := parallelFixtures(13)
	want := reftest.TMulChunked(a, b, dense.TMulChunkFor(a, b))
	bitEq(t, "chunked TMul vs reftest.TMulChunked", dense.TMul(a, b), want)
	if !relEqual(dense.TMul(a, b), reftest.TMul(a, b), 1e-12) {
		t.Fatal("chunked TMul differs from serial reference beyond rounding")
	}
}

func TestMulParallelMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a, b := randMat(rng, 400, 300), randMat(rng, 300, 200) // 24M flops → parallel
	bitEq(t, "parallel Mul vs reftest.Mul", dense.Mul(a, b), reftest.Mul(a, b))
}

// TestDenseKernelsWorkerCountInvariant pins the package guarantee: every
// parallelised dense kernel returns identical bits at any worker count,
// including the chunk-reduced TMul (its reduction grid depends on the
// problem size only).
func TestDenseKernelsWorkerCountInvariant(t *testing.T) {
	aWide, bWide, aTall, bTall := parallelFixtures(19)
	rng := rand.New(rand.NewSource(23))
	aSq, bSq := randMat(rng, 300, 300), randMat(rng, 300, 300)
	kernels := map[string]func() *dense.Mat{
		"Mul":  func() *dense.Mat { return dense.Mul(aSq, bSq) },
		"MulT": func() *dense.Mat { return dense.MulT(aWide, bWide) },
		"TMul": func() *dense.Mat { return dense.TMul(aTall, bTall) },
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

// TestDenseKernelsGOMAXPROCSDeterminism is the satellite requirement
// verbatim: GOMAXPROCS=1 and GOMAXPROCS=N produce equal results for
// every parallelised kernel.
func TestDenseKernelsGOMAXPROCSDeterminism(t *testing.T) {
	aWide, bWide, aTall, bTall := parallelFixtures(29)
	kernels := map[string]func() *dense.Mat{
		"MulT": func() *dense.Mat { return dense.MulT(aWide, bWide) },
		"TMul": func() *dense.Mat { return dense.TMul(aTall, bTall) },
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

func TestMulTIntoReusesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a, b := randMat(rng, 500, 8), randMat(rng, 20, 8)
	want := reftest.MulT(a, b)

	scratch := dense.NewMat(500, 20)
	got := dense.MulTInto(scratch, a, b)
	if got != scratch {
		t.Fatal("MulTInto did not reuse adequately-sized scratch")
	}
	bitEq(t, "MulTInto(scratch)", got, want)
	// Dirty scratch of larger capacity must be fully overwritten.
	big := dense.NewMat(600, 20)
	for i := range big.Data {
		big.Data[i] = math.NaN()
	}
	got = dense.MulTInto(big, a, b)
	if got != big {
		t.Fatal("MulTInto did not reuse larger-capacity scratch")
	}
	if got.Rows != 500 || got.Cols != 20 || got.HasNaN() {
		t.Fatal("MulTInto left stale contents in reused scratch")
	}
	bitEq(t, "MulTInto(dirty scratch)", got, want)
	// Undersized scratch allocates; nil scratch allocates.
	small := dense.NewMat(3, 3)
	if got = dense.MulTInto(small, a, b); got == small {
		t.Fatal("MulTInto reused undersized scratch")
	}
	bitEq(t, "MulTInto(undersized)", got, want)
	bitEq(t, "MulTInto(nil)", dense.MulTInto(nil, a, b), want)
}

func TestReuse(t *testing.T) {
	m := dense.NewMat(4, 6)
	if got := m.Reuse(3, 8); got != m || got.Rows != 3 || got.Cols != 8 {
		t.Fatalf("Reuse within capacity: got %dx%d, same=%v", got.Rows, got.Cols, got == m)
	}
	if got := m.Reuse(10, 10); got == m || got.Rows != 10 || got.Cols != 10 {
		t.Fatal("Reuse beyond capacity must allocate")
	}
	var nilMat *dense.Mat
	if got := nilMat.Reuse(2, 2); got == nil || got.Rows != 2 {
		t.Fatal("nil Reuse must allocate")
	}
}

// --- Kernel benchmarks (CI runs these with -benchtime=1x as a smoke
// test; EXPERIMENTS.md records full runs at GOMAXPROCS 1 vs N). ---

// BenchmarkKernelMulTQueryShape is the serving hot path's exact GEMM
// shape: Z (n x r) times [U]_{Q,*}ᵀ (|Q| x r)ᵀ at n=100k, r=32, |Q|=32.
func BenchmarkKernelMulTQueryShape(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	z, uq := randMat(rng, 100000, 32), randMat(rng, 32, 32)
	var scratch *dense.Mat
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = dense.MulTInto(scratch, z, uq)
	}
}

func BenchmarkKernelMul(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x, y := randMat(rng, 512, 512), randMat(rng, 512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.Mul(x, y)
	}
}

// BenchmarkKernelTMul is the H₀ = VᵀUΣ / Gram-matrix shape: tall-skinny
// aᵀb with a small output and a long reduced dimension.
func BenchmarkKernelTMul(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x, y := randMat(rng, 200000, 16), randMat(rng, 200000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.TMul(x, y)
	}
}

// BenchmarkKernelOrthonormalize is Phase I's orthonormaliser at the two
// shapes that matter: the WT serving fixture's support panel (38306 rows,
// r = 16 + oversample 8) and a Table-3 rank sweep cell (n = 20000, r = 50 +
// 8).
func BenchmarkKernelOrthonormalize(b *testing.B) {
	for _, sh := range [][2]int{{38306, 24}, {20000, 58}} {
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			a := randMat(rand.New(rand.NewSource(4)), sh[0], sh[1])
			panel := make([]float64, len(a.Data))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dense.OrthonormalizeInto(a, panel, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelMulTQueryShapeWorkers sweeps the worker count on the
// query-shaped GEMM so the speedup curve (or, on a single-core box, the
// dispatch overhead) is measured directly. EXPERIMENTS.md records runs.
func BenchmarkKernelMulTQueryShapeWorkers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	z, uq := randMat(rng, 100000, 32), randMat(rng, 32, 32)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := par.SetMaxWorkers(w)
			defer par.SetMaxWorkers(prev)
			var scratch *dense.Mat
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scratch = dense.MulTInto(scratch, z, uq)
			}
		})
	}
}

// BenchmarkKernelMulTQueryShapeGeneric pins the pure-Go tiled kernels'
// cost on the same shape, so the assembly micro-kernel's margin is
// visible in the same benchstat table.
func BenchmarkKernelMulTQueryShapeGeneric(b *testing.B) {
	if !dense.DotAsmAvailable {
		b.Skip("generic kernels are already the default path")
	}
	prev := dense.SetGenericKernels(true)
	defer dense.SetGenericKernels(prev)
	rng := rand.New(rand.NewSource(1))
	z, uq := randMat(rng, 100000, 32), randMat(rng, 32, 32)
	var scratch *dense.Mat
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = dense.MulTInto(scratch, z, uq)
	}
}
