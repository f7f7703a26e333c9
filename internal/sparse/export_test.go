package sparse

import "csrplus/internal/simd"

// SetKernelTier makes MulDenseInto's row body the one of tier t — go, sse2
// or avx2, one of simd.Tiers() — so the differential suites can hold every
// tier this CPU runs to the reference bit for bit. It returns the previous
// tier for deferred restore.
func SetKernelTier(t simd.Tier) simd.Tier {
	if t > simd.Detected() {
		panic("sparse: SetKernelTier above the tier this CPU runs")
	}
	return simd.Tier(kernelTier.Swap(uint32(t)))
}
