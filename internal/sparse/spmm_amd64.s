// Row kernels for CSR.MulDenseInto: SSE2 (spmmRow8) and AVX2 (spmmRowY).
//
// The lane contract is dense/dot_amd64.s's: the lanes of a vector register
// — two per XMM, four per YMM — are adjacent output *columns*, never steps
// of the reduction. Each lane carries one output element's accumulator
// from +0 through the row's stored entries in ascending p, one multiply
// and one add per entry, and per-lane MULPD/ADDPD (VMULPD/VADDPD) rounding
// is scalar MULSD/ADDSD rounding (Go leaves MXCSR at round-to-nearest with
// FTZ/DAZ off; there is no FMA, whose single rounding would move bits), so
// the row is bitwise the pure-Go loop's and reftest.CSRMulDense's — NaN,
// ±Inf, signed zeros and subnormals included. The product is formed in the
// register that holds b's values and added into the accumulator, the
// operand order the compiler gives the four-accumulator Go loop in a
// normal build (a -race build orders it otherwise), so when both operands
// are NaN the same one's payload survives in both assembly kernels.
//
// spmmRow8 is SSE2 only (the amd64 baseline, GOAMD64=v1): no CPU feature
// gate. spmmRowY is reached only when internal/simd's CPU check found AVX2
// and OS-saved YMM state, and ends with VZEROUPPER. R14 and X15/Y15
// (ABIInternal's g and zero registers) are untouched.

#include "textflag.h"

// func spmmRow8(out, b, val *float64, idx *int32, nnz, stride, blocks int64)
//
// For each of `blocks` groups of eight columns, left to right:
// out[8g : 8g+8] = Σ_p val[p] · b[idx[p]·stride + 8g : … + 8], p ascending
// over the row's nnz entries, in X0..X3. stride is b's row length in
// elements. One sweep of the entries per group: the value is broadcast once
// and meets four 16-byte loads.
TEXT ·spmmRow8(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ val+16(FP), R8
	MOVQ idx+24(FP), R9
	MOVQ nnz+32(FP), CX
	MOVQ stride+40(FP), R10
	MOVQ blocks+48(FP), R11
	SHLQ $3, R10
	TESTQ R11, R11
	JE   done

block:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  BX, BX

entry:
	CMPQ BX, CX
	JGE  store
	MOVLQSX (R9)(BX*4), AX
	IMULQ  R10, AX
	MOVSD  (R8)(BX*8), X4
	UNPCKLPD X4, X4
	MOVUPD (SI)(AX*1), X5
	MULPD  X4, X5
	ADDPD  X5, X0
	MOVUPD 16(SI)(AX*1), X6
	MULPD  X4, X6
	ADDPD  X6, X1
	MOVUPD 32(SI)(AX*1), X7
	MULPD  X4, X7
	ADDPD  X7, X2
	MOVUPD 48(SI)(AX*1), X8
	MULPD  X4, X8
	ADDPD  X8, X3
	INCQ BX
	JMP  entry

store:
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	ADDQ $64, DI
	ADDQ $64, SI
	DECQ R11
	JNE  block

done:
	RET

// func spmmRowY(out, b, val *float64, idx *int32, nnz, stride, blocks int64)
//
// spmmRow8's contract on AVX2, three blocks of eight columns to a sweep:
// six YMM accumulators Y0..Y5 take 24 columns from one pass over the row's
// entries, the value broadcast once into Y6 and meeting six 32-byte loads.
// A remainder of two or one blocks takes one more sweep with four or two
// accumulators. At k = 24 — the rank-16 sketch — a row is one sweep.
TEXT ·spmmRowY(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ val+16(FP), R8
	MOVQ idx+24(FP), R9
	MOVQ nnz+32(FP), CX
	MOVQ stride+40(FP), R10
	MOVQ blocks+48(FP), R11
	SHLQ $3, R10

ytriple:
	CMPQ R11, $3
	JLT  ydouble
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	XORQ BX, BX

ytentry:
	CMPQ BX, CX
	JGE  ytstore
	MOVLQSX (R9)(BX*4), AX
	IMULQ  R10, AX
	VBROADCASTSD (R8)(BX*8), Y6
	VMOVUPD (SI)(AX*1), Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  Y7, Y0, Y0
	VMOVUPD 32(SI)(AX*1), Y8
	VMULPD  Y6, Y8, Y8
	VADDPD  Y8, Y1, Y1
	VMOVUPD 64(SI)(AX*1), Y9
	VMULPD  Y6, Y9, Y9
	VADDPD  Y9, Y2, Y2
	VMOVUPD 96(SI)(AX*1), Y10
	VMULPD  Y6, Y10, Y10
	VADDPD  Y10, Y3, Y3
	VMOVUPD 128(SI)(AX*1), Y11
	VMULPD  Y6, Y11, Y11
	VADDPD  Y11, Y4, Y4
	VMOVUPD 160(SI)(AX*1), Y12
	VMULPD  Y6, Y12, Y12
	VADDPD  Y12, Y5, Y5
	INCQ BX
	JMP  ytentry

ytstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	ADDQ $192, DI
	ADDQ $192, SI
	SUBQ $3, R11
	JMP  ytriple

ydouble:
	CMPQ R11, $2
	JLT  ysingle
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ BX, BX

ydentry:
	CMPQ BX, CX
	JGE  ydstore
	MOVLQSX (R9)(BX*4), AX
	IMULQ  R10, AX
	VBROADCASTSD (R8)(BX*8), Y6
	VMOVUPD (SI)(AX*1), Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  Y7, Y0, Y0
	VMOVUPD 32(SI)(AX*1), Y8
	VMULPD  Y6, Y8, Y8
	VADDPD  Y8, Y1, Y1
	VMOVUPD 64(SI)(AX*1), Y9
	VMULPD  Y6, Y9, Y9
	VADDPD  Y9, Y2, Y2
	VMOVUPD 96(SI)(AX*1), Y10
	VMULPD  Y6, Y10, Y10
	VADDPD  Y10, Y3, Y3
	INCQ BX
	JMP  ydentry

ydstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	JMP  ydone

ysingle:
	CMPQ R11, $1
	JLT  ydone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ BX, BX

ysentry:
	CMPQ BX, CX
	JGE  ysstore
	MOVLQSX (R9)(BX*4), AX
	IMULQ  R10, AX
	VBROADCASTSD (R8)(BX*8), Y6
	VMOVUPD (SI)(AX*1), Y7
	VMULPD  Y6, Y7, Y7
	VADDPD  Y7, Y0, Y0
	VMOVUPD 32(SI)(AX*1), Y8
	VMULPD  Y6, Y8, Y8
	VADDPD  Y8, Y1, Y1
	INCQ BX
	JMP  ysentry

ysstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)

ydone:
	VZEROUPPER
	RET
