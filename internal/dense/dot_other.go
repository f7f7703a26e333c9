//go:build !amd64

package dense

// Off amd64 simd.Detected is Go, so the kernel tier never rises above the
// pure-Go tiles in tile.go and the stubs below are never reached.

func dotKernel4x2(o0, o1, o2, o3, a0, a1, a2, a3, bp *float64, k, acc int64) {
	panic("dense: dotKernel4x2 unavailable on this architecture")
}

func dotKernel4x8(o0, o1, o2, o3, a0, a1, a2, a3, bp *float64, k, acc int64) {
	panic("dense: dotKernel4x8 unavailable on this architecture")
}

func tmulKernel4x2(d0, d1, d2, d3, a0, b0 *float64, astride, bstride, k int64) {
	panic("dense: tmulKernel4x2 unavailable on this architecture")
}

func tmulKernel4x8(d0, d1, d2, d3, a0, b0 *float64, astride, bstride, k int64) {
	panic("dense: tmulKernel4x8 unavailable on this architecture")
}
