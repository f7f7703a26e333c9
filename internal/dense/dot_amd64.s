// Packed micro-kernels for the register-tiled GEMMs in tile.go: SSE2 4×2
// tiles, and AVX2 4×8 tiles beside them.
//
// Every kernel maps the output *columns* of its register tile onto the
// lanes of a vector register — two per XMM, four per YMM. Lanes never map
// onto the reduction dimension k: each lane carries exactly one output
// element's accumulator through the same ascending-k multiply-add sequence
// as the scalar Go kernels, and per-lane MULPD/ADDPD (VMULPD/VADDPD)
// rounding is identical to scalar MULSD/ADDSD rounding (Go leaves MXCSR at
// round-to-nearest with FTZ/DAZ off), so results are bitwise-identical to
// the pure-Go tiles and to the reftest references — NaN, ±Inf, signed
// zeros and subnormals included. The AVX2 kernels keep the multiply and
// the add separate: a fused multiply-add rounds once where the scalar
// kernels round twice, and would move bits. Each product takes a as its
// first source and each sum the accumulator, the SSE2 kernels' operand
// order, so when both operands are NaN the same payload survives.
//
// The SSE2 kernels need no CPU gate (SSE2 is the amd64 baseline,
// GOAMD64=v1); the AVX2 ones are reached only when internal/simd's CPU
// check found AVX2 and OS-saved YMM state, and each ends with VZEROUPPER so
// the SSE code after it pays no transition penalty. R14 (the ABIInternal g
// register) and X15/Y15 (the ABIInternal zero register) are deliberately
// untouched.

#include "textflag.h"

// func dotKernel4x2(o0, o1, o2, o3, a0, a1, a2, a3, bp *float64, k, acc int64)
//
// X0..X3 hold the tile accumulators [s_i0, s_i1] for rows i = 0..3.
// bp walks k interleaved [b0[t], b1[t]] couples (packBPairs layout), so
// the two column operands arrive as one 16-byte load; the four a
// operands are scalar loads broadcast with UNPCKLPD. The k loop is
// unrolled by two — the unrolled adds stay sequentially dependent per
// accumulator, preserving per-element order.
TEXT ·dotKernel4x2(SB), NOSPLIT, $0-88
	MOVQ o0+0(FP), DI
	MOVQ o1+8(FP), SI
	MOVQ o2+16(FP), R8
	MOVQ o3+24(FP), R9
	MOVQ a0+32(FP), R10
	MOVQ a1+40(FP), R11
	MOVQ a2+48(FP), R12
	MOVQ a3+56(FP), R13
	MOVQ bp+64(FP), R15
	MOVQ k+72(FP), CX
	MOVQ acc+80(FP), AX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	TESTQ AX, AX
	JE   prep
	MOVUPD (DI), X0
	MOVUPD (SI), X1
	MOVUPD (R8), X2
	MOVUPD (R9), X3

prep:
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-2, DX

pair:
	CMPQ BX, DX
	JGE  tail
	MOVUPD (R15), X4
	MOVSD  (R10)(BX*8), X5
	UNPCKLPD X5, X5
	MULPD  X4, X5
	ADDPD  X5, X0
	MOVSD  (R11)(BX*8), X6
	UNPCKLPD X6, X6
	MULPD  X4, X6
	ADDPD  X6, X1
	MOVSD  (R12)(BX*8), X7
	UNPCKLPD X7, X7
	MULPD  X4, X7
	ADDPD  X7, X2
	MOVSD  (R13)(BX*8), X8
	UNPCKLPD X8, X8
	MULPD  X4, X8
	ADDPD  X8, X3
	MOVUPD 16(R15), X9
	MOVSD  8(R10)(BX*8), X10
	UNPCKLPD X10, X10
	MULPD  X9, X10
	ADDPD  X10, X0
	MOVSD  8(R11)(BX*8), X11
	UNPCKLPD X11, X11
	MULPD  X9, X11
	ADDPD  X11, X1
	MOVSD  8(R12)(BX*8), X12
	UNPCKLPD X12, X12
	MULPD  X9, X12
	ADDPD  X12, X2
	MOVSD  8(R13)(BX*8), X13
	UNPCKLPD X13, X13
	MULPD  X9, X13
	ADDPD  X13, X3
	ADDQ $32, R15
	ADDQ $2, BX
	JMP  pair

tail:
	CMPQ BX, CX
	JGE  store
	MOVUPD (R15), X4
	MOVSD  (R10)(BX*8), X5
	UNPCKLPD X5, X5
	MULPD  X4, X5
	ADDPD  X5, X0
	MOVSD  (R11)(BX*8), X6
	UNPCKLPD X6, X6
	MULPD  X4, X6
	ADDPD  X6, X1
	MOVSD  (R12)(BX*8), X7
	UNPCKLPD X7, X7
	MULPD  X4, X7
	ADDPD  X7, X2
	MOVSD  (R13)(BX*8), X8
	UNPCKLPD X8, X8
	MULPD  X4, X8
	ADDPD  X8, X3

store:
	MOVUPD X0, (DI)
	MOVUPD X1, (SI)
	MOVUPD X2, (R8)
	MOVUPD X3, (R9)
	RET

// func tmulKernel4x2(d0, d1, d2, d3, a0, b0 *float64, astride, bstride, k int64)
//
// TMul variant: b's [j, j+1] pair is contiguous in the natural row-major
// layout (no packing needed), a is read as astride-spaced scalars down
// column i. Strides are element counts; converted to bytes on entry.
// Always accumulates into the existing tile values (TMul callers pass
// zeroed or partially-accumulated buffers).
TEXT ·tmulKernel4x2(SB), NOSPLIT, $0-72
	MOVQ d0+0(FP), DI
	MOVQ d1+8(FP), SI
	MOVQ d2+16(FP), R8
	MOVQ d3+24(FP), R9
	MOVQ a0+32(FP), R10
	MOVQ b0+40(FP), R11
	MOVQ astride+48(FP), R12
	MOVQ bstride+56(FP), R13
	MOVQ k+64(FP), CX
	SHLQ $3, R12
	SHLQ $3, R13
	MOVUPD (DI), X0
	MOVUPD (SI), X1
	MOVUPD (R8), X2
	MOVUPD (R9), X3
	TESTQ CX, CX
	JE   tdone

tloop:
	MOVUPD (R11), X4
	MOVSD  (R10), X5
	UNPCKLPD X5, X5
	MULPD  X4, X5
	ADDPD  X5, X0
	MOVSD  8(R10), X6
	UNPCKLPD X6, X6
	MULPD  X4, X6
	ADDPD  X6, X1
	MOVSD  16(R10), X7
	UNPCKLPD X7, X7
	MULPD  X4, X7
	ADDPD  X7, X2
	MOVSD  24(R10), X8
	UNPCKLPD X8, X8
	MULPD  X4, X8
	ADDPD  X8, X3
	ADDQ R12, R10
	ADDQ R13, R11
	DECQ CX
	JNE  tloop

tdone:
	MOVUPD X0, (DI)
	MOVUPD X1, (SI)
	MOVUPD X2, (R8)
	MOVUPD X3, (R9)
	RET

// func dotKernel4x8(o0, o1, o2, o3, a0, a1, a2, a3, bp *float64, k, acc int64)
//
// AVX2 4×8 tile: Y(2i), Y(2i+1) hold row i's accumulators for columns
// 0..3 and 4..7. bp walks k packed octets [b0[t] … b7[t]] (packBOctets
// layout), two 32-byte loads a step; each a operand is one VBROADCASTSD.
TEXT ·dotKernel4x8(SB), NOSPLIT, $0-88
	MOVQ o0+0(FP), DI
	MOVQ o1+8(FP), SI
	MOVQ o2+16(FP), R8
	MOVQ o3+24(FP), R9
	MOVQ a0+32(FP), R10
	MOVQ a1+40(FP), R11
	MOVQ a2+48(FP), R12
	MOVQ a3+56(FP), R13
	MOVQ bp+64(FP), R15
	MOVQ k+72(FP), CX
	MOVQ acc+80(FP), AX
	TESTQ AX, AX
	JE   yzero
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VMOVUPD (R8), Y4
	VMOVUPD 32(R8), Y5
	VMOVUPD (R9), Y6
	VMOVUPD 32(R9), Y7
	JMP  yprep

yzero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

yprep:
	XORQ BX, BX

ystep:
	CMPQ BX, CX
	JGE  ystore
	VMOVUPD (R15), Y8
	VMOVUPD 32(R15), Y9
	VBROADCASTSD (R10)(BX*8), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y1, Y1
	VBROADCASTSD (R11)(BX*8), Y13
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y2, Y2
	VMULPD Y9, Y13, Y11
	VADDPD Y11, Y3, Y3
	VBROADCASTSD (R12)(BX*8), Y10
	VMULPD Y8, Y10, Y12
	VADDPD Y12, Y4, Y4
	VMULPD Y9, Y10, Y14
	VADDPD Y14, Y5, Y5
	VBROADCASTSD (R13)(BX*8), Y13
	VMULPD Y8, Y13, Y11
	VADDPD Y11, Y6, Y6
	VMULPD Y9, Y13, Y12
	VADDPD Y12, Y7, Y7
	ADDQ $64, R15
	INCQ BX
	JMP  ystep

ystore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (SI)
	VMOVUPD Y3, 32(SI)
	VMOVUPD Y4, (R8)
	VMOVUPD Y5, 32(R8)
	VMOVUPD Y6, (R9)
	VMOVUPD Y7, 32(R9)
	VZEROUPPER
	RET

// func tmulKernel4x8(d0, d1, d2, d3, a0, b0 *float64, astride, bstride, k int64)
//
// AVX2 TMul tile: tmulKernel4x2 with b's [j, j+8) octet as two contiguous
// 32-byte loads a row. Always accumulates into the existing tile values.
TEXT ·tmulKernel4x8(SB), NOSPLIT, $0-72
	MOVQ d0+0(FP), DI
	MOVQ d1+8(FP), SI
	MOVQ d2+16(FP), R8
	MOVQ d3+24(FP), R9
	MOVQ a0+32(FP), R10
	MOVQ b0+40(FP), R11
	MOVQ astride+48(FP), R12
	MOVQ bstride+56(FP), R13
	MOVQ k+64(FP), CX
	SHLQ $3, R12
	SHLQ $3, R13
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VMOVUPD (R8), Y4
	VMOVUPD 32(R8), Y5
	VMOVUPD (R9), Y6
	VMOVUPD 32(R9), Y7
	TESTQ CX, CX
	JE   ytdone

ytloop:
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	VBROADCASTSD (R10), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y12
	VADDPD Y12, Y1, Y1
	VBROADCASTSD 8(R10), Y13
	VMULPD Y8, Y13, Y14
	VADDPD Y14, Y2, Y2
	VMULPD Y9, Y13, Y11
	VADDPD Y11, Y3, Y3
	VBROADCASTSD 16(R10), Y10
	VMULPD Y8, Y10, Y12
	VADDPD Y12, Y4, Y4
	VMULPD Y9, Y10, Y14
	VADDPD Y14, Y5, Y5
	VBROADCASTSD 24(R10), Y13
	VMULPD Y8, Y13, Y11
	VADDPD Y11, Y6, Y6
	VMULPD Y9, Y13, Y12
	VADDPD Y12, Y7, Y7
	ADDQ R12, R10
	ADDQ R13, R11
	DECQ CX
	JNE  ytloop

ytdone:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (SI)
	VMOVUPD Y3, 32(SI)
	VMOVUPD Y4, (R8)
	VMOVUPD Y5, 32(R8)
	VMOVUPD Y6, (R9)
	VMOVUPD Y7, 32(R9)
	VZEROUPPER
	RET
