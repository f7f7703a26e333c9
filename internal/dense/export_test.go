package dense

import (
	"csrplus/internal/par"
	"csrplus/internal/simd"
)

// SetKernelTier makes the GEMMs dispatch on tier t — go, sse2 or avx2,
// one of simd.Tiers() — so the differential suites can hold every tier
// this CPU runs to the references bit for bit. It returns the previous tier
// for deferred restore.
func SetKernelTier(t simd.Tier) simd.Tier {
	if t > simd.Detected() {
		panic("dense: SetKernelTier above the tier this CPU runs")
	}
	return simd.Tier(kernelTier.Swap(uint32(t)))
}

// MulTLower is mulTDotLower over every row of a: a·bᵀ for a square, lower
// triangular b, each tile's reduction stopped where b's zero triangle starts.
func MulTLower(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Rows)
	mulTDotLower(out, a, b, 0, a.Rows)
	return out
}

// TMulChunkFor replays TMul's reduction-grid sizing for a given operand
// pair: the chunk length its deterministic chunk-ordered reduction will
// use, or 0 when the product runs the serial single-chunk path. The
// differential suites feed this to reftest.TMulChunked so TMul is held
// bitwise to its reference at *every* shape, parallel or not.
func TMulChunkFor(a, b *Mat) int {
	outLen := a.Cols * b.Cols
	flops := int64(a.Rows) * int64(outLen)
	maxChunks := tmulMaxChunks
	if outLen > 0 && tmulMaxPartial/outLen < maxChunks {
		maxChunks = tmulMaxPartial / outLen
	}
	if flops < par.DefaultThreshold || maxChunks < 2 || outLen == 0 {
		return 0
	}
	minChunk := 1 + (1<<17)/outLen
	chunk, count := par.Grid(a.Rows, minChunk, maxChunks)
	if count < 2 {
		return 0
	}
	return chunk
}
