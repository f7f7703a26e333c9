//go:build !amd64

package sparse

// spmmAsmAvailable is false off amd64: the pure-Go loop in mulDenseRows is
// the whole kernel and the stub below is never reached.
const spmmAsmAvailable = false

func spmmRow8(out, b, val *float64, idx *int32, nnz, stride, blocks int64) {
	panic("sparse: spmmRow8 unavailable on this architecture")
}
