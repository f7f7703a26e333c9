package sparse

// spmmRow8 writes the leading 8*blocks elements of one output row of m·b:
// out[c] = Σ_p val[p]·b[idx[p]*stride+c], p ascending over the row's nnz
// stored entries, each sum started from +0. Eight columns share one sweep
// of the entries, one SSE lane per column, so every element is bitwise the
// scalar loop's (see spmm_amd64.s).
//
//go:noescape
func spmmRow8(out, b, val *float64, idx *int32, nnz, stride, blocks int64)

// spmmRowY is spmmRow8 on AVX2: up to three blocks of eight columns share
// one sweep of the entries, one YMM lane per column. Call only at tier
// AVX2.
//
//go:noescape
func spmmRowY(out, b, val *float64, idx *int32, nnz, stride, blocks int64)
