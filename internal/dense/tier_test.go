package dense_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"csrplus/internal/dense"
	"csrplus/internal/dense/reftest"
	"csrplus/internal/simd"
)

// The suites below sweep the shapes where the tiers part ways: the AVX2
// tier cuts output columns into octets, then pairs, then a single edge
// column; the SSE2 tier into pairs and the edge; the pure-Go tier into its
// own pairs. Every tier must give the reference's bits at every shape.

// eachTier runs body once per kernel tier this CPU runs, restoring the
// detected tier afterwards.
func eachTier(body func(tier simd.Tier)) {
	defer dense.SetKernelTier(dense.SetKernelTier(simd.Detected()))
	for _, tier := range simd.Tiers() {
		dense.SetKernelTier(tier)
		body(tier)
	}
}

// TestTiersColumnCounts: 1–17 output columns (none to two octets, with
// every remainder of pairs and edges) against row counts on both sides of
// the 4-row tile, at short ranks and at ranks past kcPanel, where the
// kernels accumulate into out across k panels (acc=1) instead of starting
// from zero.
func TestTiersColumnCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	eachTier(func(tier simd.Tier) {
		for _, k := range []int{1, 2, 7, 64, 257, 300} {
			for n := 1; n <= 17; n++ {
				for _, m := range []int{4, 7, 9} {
					a, b := ieeeMat(rng, m, k), ieeeMat(rng, n, k)
					tag := fmt.Sprintf("tier=%v m=%d n=%d k=%d", tier, m, n, k)
					bitEq(t, "MulT "+tag, dense.MulT(a, b), reftest.MulT(a, b))
					c := ieeeMat(rng, k, n)
					bitEq(t, "Mul "+tag, dense.Mul(a, c), reftest.Mul(a, c))
					at := ieeeMat(rng, k, m)
					bitEq(t, "TMul "+tag, dense.TMul(at, c), reftest.TMul(at, c))
				}
			}
		}
	})
}

// TestTiersWideOutputs: output column counts past ncPanel (two column
// panels, the second holding octets, pairs and an edge of its own) at a
// rank past kcPanel.
func TestTiersWideOutputs(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	a, b := ieeeMat(rng, 13, 270), ieeeMat(rng, 128+19, 270)
	want := reftest.MulT(a, b)
	eachTier(func(tier simd.Tier) {
		bitEq(t, fmt.Sprintf("MulT tier=%v", tier), dense.MulT(a, b), want)
	})
}

// TestTiersSpecialLanes puts each IEEE special — NaN, ±Inf, −0, ±the
// smallest subnormal, the largest finite — in every lane of an octet in
// turn, on both operands, so a lane that mixed up columns or dropped a
// term shows on the value that exposes it.
func TestTiersSpecialLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const m, n, k = 4, 8, 5
	eachTier(func(tier simd.Tier) {
		for _, v := range specials {
			for lane := 0; lane < n; lane++ {
				a, b := randMat(rng, m, k), randMat(rng, n, k)
				b.Set(lane, lane%k, v)
				a.Set(lane%m, (lane+1)%k, v)
				tag := fmt.Sprintf("tier=%v value=%v lane=%d", tier, v, lane)
				bitEq(t, "MulT "+tag, dense.MulT(a, b), reftest.MulT(a, b))
				bt := randMat(rng, k, n)
				bt.Set(lane%k, lane, v)
				at := randMat(rng, k, m)
				at.Set((lane+2)%k, lane%m, v)
				bitEq(t, "TMul "+tag, dense.TMul(at, bt), reftest.TMul(at, bt))
			}
		}
	})
}

// TestTiersLowerTrianglePerOctet: mulTDotLower stops each tile's reduction
// where b's zero triangle starts — at k = j+8 for the octet of columns
// [j, j+8), j+2 for a pair. Every size from 1 to 40 puts that stop inside,
// at the end of and past the rank, with signed zeros in both operands.
func TestTiersLowerTrianglePerOctet(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	eachTier(func(tier simd.Tier) {
		for k := 1; k <= 40; k++ {
			b := randMat(rng, k, k)
			for i := 0; i < k; i++ {
				b.Set(i, (i*5)%(i+1), math.Copysign(0, -1))
				for j := i + 1; j < k; j++ {
					b.Set(i, j, math.Copysign(0, float64((i+j)%2)-0.5))
				}
			}
			for _, rows := range []int{4, 9} {
				a := randMat(rng, rows, k)
				a.Set(rows-1, k-1, math.Copysign(0, -1))
				a.Set(0, 0, -math.SmallestNonzeroFloat64)
				bitEq(t, fmt.Sprintf("MulTLower tier=%v %dx%d", tier, rows, k), dense.MulTLower(a, b), reftest.MulT(a, b))
			}
		}
	})
}

// TestTiersGramUpperStart: Gram's row band of columns i..i+3 starts its
// tiles at column i, so an octet there can start at any multiple of 4 and
// cross the diagonal. Column counts 1–17 and 24, serial and chunk-reduced,
// each held to TMul(a, a) and, serially, to the reference.
func TestTiersGramUpperStart(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	finite := func(r, c int) *dense.Mat {
		m := randMat(rng, r, c)
		for i := 0; i < len(m.Data); i += 5 {
			m.Data[i] = specials[3+(i/5)%4] // −0, +0, ±the smallest subnormal
		}
		return m
	}
	eachTier(func(tier simd.Tier) {
		for _, c := range []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 16, 17, 24} {
			for _, rows := range []int{3, 40, 5001} { // 5001 rows chunk-reduce from 16 columns up
				a := finite(rows, c)
				tag := fmt.Sprintf("tier=%v %dx%d", tier, rows, c)
				g := dense.Gram(a)
				bitEq(t, "Gram vs TMul "+tag, g, dense.TMul(a, a))
				if dense.TMulChunkFor(a, a) == 0 {
					bitEq(t, "Gram vs reftest "+tag, g, reftest.TMul(a, a))
				}
			}
		}
	})
}

// TestTiersNaNPayloadsAgree: reftest.Diff counts any NaN equal to any
// other, so the suites above cannot see which payload survives a product
// or sum of two NaNs. The two assembly tiers take their operands in the
// same order (a first in a product, the accumulator first in a sum), so
// they must agree on the payload too.
func TestTiersNaNPayloadsAgree(t *testing.T) {
	if simd.Detected() < simd.AVX2 {
		t.Skip("one assembly tier on this CPU")
	}
	a, b := dense.NewMat(4, 3), dense.NewMat(8, 3)
	for i := range a.Data {
		a.Data[i] = math.Float64frombits(0x7ff8000000000a00 + uint64(i)) // a payload per term
	}
	for i := range b.Data {
		b.Data[i] = math.Float64frombits(0xfff8000000000001)
	}
	a.Data[1], b.Data[3] = 2, 1 // one product of a NaN with a number, on each side
	defer dense.SetKernelTier(dense.SetKernelTier(simd.SSE2))
	want, wantT := dense.MulT(a, b), dense.TMul(a.T(), b.T())
	dense.SetKernelTier(simd.AVX2)
	got, gotT := dense.MulT(a, b), dense.TMul(a.T(), b.T())
	for p := range want.Data {
		if math.Float64bits(got.Data[p]) != math.Float64bits(want.Data[p]) {
			t.Errorf("MulT element %d: avx2 %x, sse2 %x", p, math.Float64bits(got.Data[p]), math.Float64bits(want.Data[p]))
		}
		if math.Float64bits(gotT.Data[p]) != math.Float64bits(wantT.Data[p]) {
			t.Errorf("TMul element %d: avx2 %x, sse2 %x", p, math.Float64bits(gotT.Data[p]), math.Float64bits(wantT.Data[p]))
		}
	}
}
