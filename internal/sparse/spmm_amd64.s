// SSE2 row kernel for CSR.MulDenseInto.
//
// The lane contract is dense/dot_amd64.s's: the two lanes of an XMM register
// are two adjacent output *columns*, never two steps of the reduction. Each
// lane carries one output element's accumulator from +0 through the row's
// stored entries in ascending p, one multiply and one add per entry, and
// per-lane MULPD/ADDPD rounding is scalar MULSD/ADDSD rounding (Go leaves
// MXCSR at round-to-nearest with FTZ/DAZ off; there is no FMA), so the row
// is bitwise the pure-Go loop's and reftest.CSRMulDense's — NaN, ±Inf,
// signed zeros and subnormals included. The product is formed in the
// register that holds b's values and added into the accumulator, the
// operand order the compiler gives the four-accumulator Go loop, so when
// both operands are NaN the same one's payload survives.
//
// SSE2 only (the amd64 baseline, GOAMD64=v1): no CPU feature gate. R14 and
// X15 (ABIInternal's g and zero registers) are untouched.

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
