package dense

// dotKernel4x2 accumulates the 4×2 output tile {o0, o1, o2, o3}[0:2]
// from four a rows of length k and a packed b pair bp (k interleaved
// [b0[t], b1[t]] couples, as laid out by packBPairs). acc != 0 loads the
// existing tile values as starting accumulators; acc == 0 starts from
// zero. Each SSE lane carries one output column's accumulator through
// the same ascending-k multiply-add sequence as the scalar kernel —
// per-lane MULPD/ADDPD rounding is exactly scalar MULSD/ADDSD rounding,
// so the result is bitwise-identical to dotTile4x2 and to the reftest
// references.
//
//go:noescape
func dotKernel4x2(o0, o1, o2, o3, a0, a1, a2, a3, bp *float64, k, acc int64)

// dotKernel4x8 is dotKernel4x2 on AVX2: the 4×8 tile {o0..o3}[0:8] against
// a packed b octet bp (k groups [b0[t] … b7[t]], as laid out by
// packBOctets), each YMM lane one output column. Bitwise-identical to
// eight dotTile4x1 columns. Call only at tier AVX2.
//
//go:noescape
func dotKernel4x8(o0, o1, o2, o3, a0, a1, a2, a3, bp *float64, k, acc int64)

// tmulKernel4x2 accumulates the 4×2 tile {d0..d3}[0:2] of aᵀ·b over k
// steps, reading a at astride-spaced scalars from a0 (column i, rows
// ascending) and b as contiguous [j, j+1] pairs at bstride-spaced rows.
// Always accumulates into the existing tile values. Lane semantics as
// dotKernel4x2: bitwise-identical to tmulTile4x2.
//
//go:noescape
func tmulKernel4x2(d0, d1, d2, d3, a0, b0 *float64, astride, bstride, k int64)

// tmulKernel4x8 is tmulKernel4x2 on AVX2, over b's contiguous [j, j+8)
// octet: the 4×8 tile {d0..d3}[0:8]. Call only at tier AVX2.
//
//go:noescape
func tmulKernel4x8(d0, d1, d2, d3, a0, b0 *float64, astride, bstride, k int64)
