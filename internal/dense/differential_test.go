package dense_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/dense/reftest"
	"csrplus/internal/par"
	"csrplus/internal/simd"
)

// specials cycled into test matrices so every kernel path crosses NaN,
// infinities, signed zero and subnormals, not just round numbers.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64,
}

// ieeeMat is randMat with specials splattered over every seventh slot.
func ieeeMat(rng *rand.Rand, r, c int) *dense.Mat {
	m := randMat(rng, r, c)
	for i := 0; i < len(m.Data); i += 7 {
		m.Data[i] = specials[(i/7)%len(specials)]
	}
	return m
}

// tileSizes is the satellite's shape grid: both sides of every tile
// boundary for the mr=4 register tile, plus empty, single and a
// two-tiles-and-edge size (2·tile+3).
var tileSizes = []int{0, 1, 3, 4, 5, 11}

// TestTiledKernelsMatchReferenceAllShapes sweeps the full m×n×k grid of
// tile-boundary shapes with IEEE-special-laden inputs and holds Mul,
// MulT and TMul bitwise to their frozen references, at every kernel
// tier the CPU runs (simd.Tiers). Shapes are far below the parallel threshold, so this
// pins the serial micro-kernels and their edge cases.
func TestTiledKernelsMatchReferenceAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, tier := range simd.Tiers() {
		prev := dense.SetKernelTier(tier)
		for _, m := range tileSizes {
			for _, n := range tileSizes {
				for _, k := range tileSizes {
					a := ieeeMat(rng, m, k)
					b := ieeeMat(rng, n, k)
					tag := fmt.Sprintf("tier=%v m=%d n=%d k=%d", tier, m, n, k)
					bitEq(t, "MulT "+tag, dense.MulT(a, b), reftest.MulT(a, b))
					c := ieeeMat(rng, k, n)
					bitEq(t, "Mul "+tag, dense.Mul(a, c), reftest.Mul(a, c))
					at := ieeeMat(rng, k, m)
					bitEq(t, "TMul "+tag, dense.TMul(at, c), reftest.TMul(at, c))
				}
			}
		}
		dense.SetKernelTier(prev)
	}
}

// TestMulTIntoInnerWidths drives MulTInto over inner widths either side of
// the register tile, the empty one included, into NaN-poisoned scratch
// that must be fully overwritten, comparing bitwise against reftest.MulT.
func TestMulTIntoInnerWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, tier := range simd.Tiers() {
		prev := dense.SetKernelTier(tier)
		for _, cols := range []int{0, 1, 4, 5, 11} {
			a, b := ieeeMat(rng, 11, cols), ieeeMat(rng, 7, cols)
			scratch := dense.NewMat(11, 7)
			for i := range scratch.Data {
				scratch.Data[i] = math.NaN()
			}
			got := dense.MulTInto(scratch, a, b)
			if got != scratch {
				t.Fatalf("cols=%d: scratch not reused", cols)
			}
			bitEq(t, fmt.Sprintf("MulTInto tier=%v cols=%d", tier, cols), got, reftest.MulT(a, b))
		}
		dense.SetKernelTier(prev)
	}
}

// TestZeroTimesNaNPropagatesInProductionKernels is the regression test
// for the zero-skip bug: the historical mulRange skipped av == 0 and
// silently dropped the IEEE-required NaN from 0·NaN and 0·±Inf terms.
// Every production kernel must now propagate it, on every kernel path.
func TestZeroTimesNaNPropagatesInProductionKernels(t *testing.T) {
	zrow := dense.NewMatFrom(1, 2, []float64{0, 0})
	poison := dense.NewMatFrom(1, 2, []float64{math.NaN(), 1})
	infRow := dense.NewMatFrom(1, 2, []float64{math.Inf(1), 1})
	for _, tier := range simd.Tiers() {
		prev := dense.SetKernelTier(tier)
		if got := dense.MulT(zrow, poison).At(0, 0); !math.IsNaN(got) {
			t.Errorf("tier=%v: MulT dropped 0·NaN, got %v", tier, got)
		}
		if got := dense.MulT(zrow, infRow).At(0, 0); !math.IsNaN(got) {
			t.Errorf("tier=%v: MulT dropped 0·Inf, got %v", tier, got)
		}
		if got := dense.Mul(zrow, poison.T()).At(0, 0); !math.IsNaN(got) {
			t.Errorf("tier=%v: Mul dropped 0·NaN, got %v", tier, got)
		}
		if got := dense.TMul(zrow.T(), poison.T()).At(0, 0); !math.IsNaN(got) {
			t.Errorf("tier=%v: TMul dropped 0·NaN, got %v", tier, got)
		}
		dense.SetKernelTier(prev)
	}
}

// TestKernelsWorkerSweepBitwiseVsReference runs shapes that clear the
// parallel threshold under worker counts {1, 2, 3, 7} and holds every
// kernel bitwise to its reference at each count — the end-to-end
// determinism contract, not just worker-vs-worker agreement. Shapes
// exercise the general panelled path too: rank > kcPanel, output
// columns > ncPanel, rows crossing mcPanel and the worker split.
func TestKernelsWorkerSweepBitwiseVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	// 170 output cols > ncPanel(128); 300 inner > kcPanel(256);
	// 402 rows cross mcPanel(64) and leave tile edges at every split.
	a, b := randMat(rng, 402, 300), randMat(rng, 170, 300)
	wantMulT := reftest.MulT(a, b)
	x, y := randMat(rng, 402, 300), randMat(rng, 300, 170)
	wantMul := reftest.Mul(x, y)
	g, h := randMat(rng, 70001, 15), randMat(rng, 70001, 13)
	wantTMul := reftest.TMulChunked(g, h, dense.TMulChunkFor(g, h))
	for _, tier := range simd.Tiers() {
		prevG := dense.SetKernelTier(tier)
		for _, w := range []int{1, 2, 3, 7} {
			prev := par.SetMaxWorkers(w)
			tag := fmt.Sprintf("tier=%v workers=%d", tier, w)
			bitEq(t, "MulT "+tag, dense.MulT(a, b), wantMulT)
			bitEq(t, "Mul "+tag, dense.Mul(x, y), wantMul)
			bitEq(t, "TMul "+tag, dense.TMul(g, h), wantTMul)
			par.SetMaxWorkers(prev)
		}
		dense.SetKernelTier(prevG)
	}
}

// TestTriangularKernelsMatchReference holds the two kernels CholeskyQR2
// runs to the full products' references bit for bit, on every kernel path:
// mulTDotLower, which leaves out the products against b's zero triangle, on
// finite inputs laced with signed zeros and subnormals (where a dropped ±0
// could show) and b up to past one panel; and Gram, which mirrors its upper
// triangle, serial and chunk-reduced.
func TestTriangularKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	finite := func(r, c int) *dense.Mat {
		m := randMat(rng, r, c)
		for i := 0; i < len(m.Data); i += 5 {
			m.Data[i] = specials[3+(i/5)%4] // −0, +0, ±the smallest subnormal
		}
		return m
	}
	for _, tier := range simd.Tiers() {
		prev := dense.SetKernelTier(tier)
		for _, k := range []int{1, 2, 3, 4, 5, 11, 24, 58, 130} {
			b := finite(k, k)
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					b.Set(i, j, math.Copysign(0, float64(j%2)-0.5))
				}
			}
			for _, rows := range []int{0, 1, 3, 4, 5, 11, 300} {
				a := finite(rows, k)
				bitEq(t, fmt.Sprintf("MulTLower tier=%v %dx%d", tier, rows, k), dense.MulTLower(a, b), reftest.MulT(a, b))
			}
		}
		for _, sh := range [][2]int{{11, 5}, {300, 24}, {70001, 15}} {
			a := finite(sh[0], sh[1])
			bitEq(t, fmt.Sprintf("Gram tier=%v %dx%d", tier, sh[0], sh[1]), dense.Gram(a), dense.TMul(a, a))
		}
		dense.SetKernelTier(prev)
	}
}

// TestAsmAndGenericKernelsAgree pins each assembly tier against the
// pure-Go tiles directly on panel-crossing shapes (a stronger statement
// than each-vs-reference when the reference shapes are smaller). Skipped
// where the pure-Go tiles are the only tier.
func TestAsmAndGenericKernelsAgree(t *testing.T) {
	tiers := simd.Tiers()
	if len(tiers) == 1 {
		t.Skip("single kernel implementation in this build")
	}
	rng := rand.New(rand.NewSource(73))
	a, b := ieeeMat(rng, 137, 261), ieeeMat(rng, 131, 261)
	g, h := ieeeMat(rng, 4099, 9), ieeeMat(rng, 4099, 6)
	prev := dense.SetKernelTier(simd.Go)
	gen, genT := dense.MulT(a, b), dense.TMul(g, h)
	for _, tier := range tiers[1:] {
		dense.SetKernelTier(tier)
		bitEq(t, fmt.Sprintf("%v MulT vs generic MulT", tier), dense.MulT(a, b), gen)
		bitEq(t, fmt.Sprintf("%v TMul vs generic TMul", tier), dense.TMul(g, h), genT)
	}
	dense.SetKernelTier(prev)
}

// TestMulInPlaceIsMul holds MulInPlace and MulInto to Mul bit for bit on
// every tier: products narrower than and as wide as their input, across the
// block boundary and past the row where blocks start going straight into
// place, with no spare, one too short for a block, one of a few blocks and
// one that holds the whole product; MulInto over an output full of NaNs,
// which it must overwrite everywhere.
func TestMulInPlaceIsMul(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	eachTier(func(tier simd.Tier) {
		for _, sh := range []struct{ rows, k, w int }{
			{0, 24, 16}, {5, 24, 16}, {4097, 24, 16}, {20011, 24, 16},
			{9001, 16, 16}, {4099, 7, 3}, {301, 300, 17}, {13, 6, 0},
		} {
			for _, spare := range []int{0, 3 * sh.w, 5003 * sh.w, sh.rows*sh.w + 5} {
				a, b := ieeeMat(rng, sh.rows, sh.k), ieeeMat(rng, sh.k, sh.w)
				want := dense.Mul(a, b)
				into := dense.NewMat(sh.rows, sh.w)
				for i := range into.Data {
					into.Data[i] = math.NaN()
				}
				if got := dense.MulInto(into, a, b); got != into || !reftest.BitEqual(got, want) {
					t.Fatalf("%v: %dx%d * %dx%d: MulInto is not Mul's bits in the given matrix", tier, sh.rows, sh.k, sh.k, sh.w)
				}
				var s []float64
				if spare > 0 {
					s = make([]float64, spare)
				}
				data := a.Data
				got := dense.MulInPlace(a, b, s)
				if !reftest.BitEqual(got, want) {
					t.Fatalf("%v: %dx%d * %dx%d with %d spare: not Mul's bits", tier, sh.rows, sh.k, sh.k, sh.w, spare)
				}
				if len(got.Data) > 0 && &got.Data[0] != &data[0] {
					t.Fatalf("%v: %dx%d * %dx%d: the product is not in a's storage", tier, sh.rows, sh.k, sh.k, sh.w)
				}
			}
		}
	})
}
