//go:build !amd64

package sparse

// Off amd64 simd.Detected is Go: the pure-Go loop in MulDenseInto is the
// whole kernel and the stubs below are never reached.

func spmmRow8(out, b, val *float64, idx *int32, nnz, stride, blocks int64) {
	panic("sparse: spmmRow8 unavailable on this architecture")
}

func spmmRowY(out, b, val *float64, idx *int32, nnz, stride, blocks int64) {
	panic("sparse: spmmRowY unavailable on this architecture")
}
