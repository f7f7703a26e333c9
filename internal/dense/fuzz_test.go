package dense_test

import (
	"math"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/dense/reftest"
	"csrplus/internal/par"
	"csrplus/internal/simd"
)

// Differential fuzzing of the tiled GEMM kernels against the frozen
// references in internal/dense/reftest. Dimensions and the worker count
// come from the fuzzed scalars; matrix payloads are raw fuzz bytes
// reinterpreted as float64 bit patterns, so the corpus explores NaNs, infinities, signed zeros, subnormals and
// garbage exponents — exactly the values a "looks right on random
// normals" kernel bug hides behind. `go test` replays the checked-in
// corpus under testdata/fuzz; `go test -fuzz=FuzzMulT ./internal/dense`
// explores. Every case is checked at every kernel tier this CPU runs
// (simd.Tiers: avx2, sse2 and go where all three exist).

// fuzzDims caps fuzzed matrix sides: big enough to cross every 4×2
// register-tile edge several times, small enough to replay thousands of
// corpus entries per second.
const fuzzDims = 24

// matFromBytes builds an r×c matrix whose elements are successive
// 8-byte windows of raw (cycled, offset by phase) reinterpreted as
// float64 bits.
func matFromBytes(r, c int, raw []byte, phase int) *dense.Mat {
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

// fuzzBitEq is bitEq for fuzz bodies (Errorf so the engine can minimise).
func fuzzBitEq(t *testing.T, what string, got, want *dense.Mat) {
	t.Helper()
	if i, j, ok := reftest.Diff(got, want); !ok {
		t.Errorf("%s: first difference at (%d, %d)", what, i, j)
	}
}

var fuzzSeeds = [][]byte{
	{},
	[]byte("csrplus kernel fuzz seed 0123456789abcdef"),
	// NaN, +Inf, -0 and a subnormal as little-endian float64 bit patterns.
	{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x7f,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x7f,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
		0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00},
}

func FuzzMulT(f *testing.F) {
	for _, raw := range fuzzSeeds {
		f.Add(uint8(4), uint8(2), uint8(32), uint8(1), raw) // serving-ish shape
		f.Add(uint8(5), uint8(3), uint8(4), uint8(2), raw)  // tile edges
		f.Add(uint8(0), uint8(7), uint8(1), uint8(0), raw)  // empty row side
		f.Add(uint8(5), uint8(3), uint8(0), uint8(1), raw)  // empty inner dimension
	}
	f.Fuzz(func(t *testing.T, ar, br, cols, workers uint8, raw []byte) {
		m, n, k := int(ar)%fuzzDims, int(br)%fuzzDims, int(cols)%fuzzDims
		a := matFromBytes(m, k, raw, 0)
		b := matFromBytes(n, k, raw, 3)
		want := reftest.MulT(a, b)
		prevW := par.SetMaxWorkers(1 + int(workers)%4)
		defer par.SetMaxWorkers(prevW)
		for _, tier := range simd.Tiers() {
			prev := dense.SetKernelTier(tier)
			fuzzBitEq(t, "MulTInto vs reftest.MulT", dense.MulTInto(nil, a, b), want)
			dense.SetKernelTier(prev)
		}
	})
}

func FuzzMul(f *testing.F) {
	for _, raw := range fuzzSeeds {
		f.Add(uint8(4), uint8(4), uint8(4), uint8(1), raw)
		f.Add(uint8(11), uint8(5), uint8(3), uint8(2), raw)
		f.Add(uint8(1), uint8(0), uint8(9), uint8(0), raw)
	}
	f.Fuzz(func(t *testing.T, ar, inner, bc, workers uint8, raw []byte) {
		m, k, n := int(ar)%fuzzDims, int(inner)%fuzzDims, int(bc)%fuzzDims
		a := matFromBytes(m, k, raw, 0)
		b := matFromBytes(k, n, raw, 5)
		want := reftest.Mul(a, b)
		prevW := par.SetMaxWorkers(1 + int(workers)%4)
		defer par.SetMaxWorkers(prevW)
		for _, tier := range simd.Tiers() {
			prev := dense.SetKernelTier(tier)
			fuzzBitEq(t, "Mul vs reftest.Mul", dense.Mul(a, b), want)
			dense.SetKernelTier(prev)
		}
	})
}

func FuzzTMul(f *testing.F) {
	for _, raw := range fuzzSeeds {
		f.Add(uint8(16), uint8(4), uint8(4), uint8(1), raw)
		f.Add(uint8(7), uint8(5), uint8(3), uint8(2), raw)
		f.Add(uint8(0), uint8(2), uint8(2), uint8(0), raw)
	}
	f.Fuzz(func(t *testing.T, shared, ac, bc, workers uint8, raw []byte) {
		r, ca, cb := int(shared)%(4*fuzzDims), int(ac)%fuzzDims, int(bc)%fuzzDims
		a := matFromBytes(r, ca, raw, 0)
		b := matFromBytes(r, cb, raw, 7)
		// TMulChunkFor replays the deterministic reduction grid, so the
		// comparison is bitwise whether or not the chunked path engages.
		want := reftest.TMulChunked(a, b, dense.TMulChunkFor(a, b))
		prevW := par.SetMaxWorkers(1 + int(workers)%4)
		defer par.SetMaxWorkers(prevW)
		for _, tier := range simd.Tiers() {
			prev := dense.SetKernelTier(tier)
			fuzzBitEq(t, "TMul vs reftest.TMulChunked", dense.TMul(a, b), want)
			dense.SetKernelTier(prev)
		}
	})
}
