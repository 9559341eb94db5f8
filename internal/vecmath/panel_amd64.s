// SSE2 micro-kernels for the query scoring passes: dotPanelRows4 scores
// four queries against one candidate row per step (DotPanel), and
// dotBatchRows4 one query against four candidate rows (DotBatch).
// Baseline amd64 instructions only (no AVX/FMA), so there is no CPUID
// dispatch and — critically — no fused multiply-add: MULPS/ADDPS round
// each lane exactly like the scalar MULSS/ADDSS pair, which is what
// keeps both kernels bit-identical to dotUnrolled (see panel.go).

#include "textflag.h"

// REDUCE4 folds a packed accumulator whose lanes are dotUnrolled's
// s0..s3 into its lane 0 as (s0+s1)+(s2+s3), with scalar ADDSS in that
// order: X5, X6 and X7 take s1, s2 and s3 broadcast to every lane, then
// acc = s0+s1, X6 = s2+s3, acc += X6. Clobbers X5-X7.
#define REDUCE4(acc) \
	MOVAPS acc, X5;       \
	SHUFPS $0x55, X5, X5; \
	MOVAPS acc, X6;       \
	SHUFPS $0xAA, X6, X6; \
	MOVAPS acc, X7;       \
	SHUFPS $0xFF, X7, X7; \
	ADDSS  X5, acc;       \
	ADDSS  X7, X6;        \
	ADDSS  X6, acc

// func dotPanelRows4(q0, q1, q2, q3 *float32, k int, data *float32, rows int, o0, o1, o2, o3 *float32)
//
// For each of rows candidate rows d (packed row-major, stride k), load
// d once and accumulate four dot products q0·d .. q3·d. The packed
// accumulator lanes are exactly dotUnrolled's s0..s3; the reduction
// performs (s0+s1)+(s2+s3) with scalar ADDSS in that order, then the
// tail elements are folded in scalarly — the same sequence of IEEE
// operations as the pure-Go kernel, so the results match bit for bit.
TEXT ·dotPanelRows4(SB), NOSPLIT, $0-88
	MOVQ q0+0(FP), R8
	MOVQ q1+8(FP), R9
	MOVQ q2+16(FP), R10
	MOVQ q3+24(FP), R11
	MOVQ k+32(FP), CX
	MOVQ data+40(FP), SI
	MOVQ rows+48(FP), DI
	MOVQ o0+56(FP), R12
	MOVQ o1+64(FP), R13
	MOVQ o2+72(FP), R14
	MOVQ o3+80(FP), R15
	MOVQ CX, BX
	ANDQ $-4, BX          // n4 = k &^ 3

rowloop:
	TESTQ DI, DI
	JZ   done
	XORPS X0, X0          // lanes are q0's s0..s3
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ AX, AX           // i = 0
	TESTQ BX, BX
	JZ   vecdone

vec:
	MOVUPS (SI)(AX*4), X4  // d[i:i+4], shared by all four queries
	MOVUPS (R8)(AX*4), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS (R9)(AX*4), X5
	MULPS  X4, X5
	ADDPS  X5, X1
	MOVUPS (R10)(AX*4), X5
	MULPS  X4, X5
	ADDPS  X5, X2
	MOVUPS (R11)(AX*4), X5
	MULPS  X4, X5
	ADDPS  X5, X3
	ADDQ   $4, AX
	CMPQ   AX, BX
	JL     vec

vecdone:
	REDUCE4(X0)
	REDUCE4(X1)
	REDUCE4(X2)
	REDUCE4(X3)

	CMPQ AX, CX
	JGE  remdone

rem:
	MOVSS (SI)(AX*4), X4
	MOVSS (R8)(AX*4), X5
	MULSS X4, X5
	ADDSS X5, X0
	MOVSS (R9)(AX*4), X5
	MULSS X4, X5
	ADDSS X5, X1
	MOVSS (R10)(AX*4), X5
	MULSS X4, X5
	ADDSS X5, X2
	MOVSS (R11)(AX*4), X5
	MULSS X4, X5
	ADDSS X5, X3
	INCQ  AX
	CMPQ  AX, CX
	JL    rem

remdone:
	MOVSS X0, (R12)
	MOVSS X1, (R13)
	MOVSS X2, (R14)
	MOVSS X3, (R15)
	ADDQ  $4, R12
	ADDQ  $4, R13
	ADDQ  $4, R14
	ADDQ  $4, R15
	LEAQ  (SI)(CX*4), SI   // next candidate row
	DECQ  DI
	JMP   rowloop

done:
	RET

// func dotBatchRows4(q *float32, k int, data *float32, rows int, out *float32)
//
// One query against four candidate rows per step (rows is a multiple of
// four; the caller scores the rest). Each row keeps its own packed
// accumulator whose lanes are dotUnrolled's s0..s3, and the query chunk
// q[i:i+4] is loaded once for all four rows. Reduction and tail follow
// dotPanelRows4 exactly, so out[r] is bit-identical to Dot(q, row r).
TEXT ·dotBatchRows4(SB), NOSPLIT, $0-40
	MOVQ q+0(FP), R8
	MOVQ k+8(FP), CX
	MOVQ data+16(FP), SI
	MOVQ rows+24(FP), DI
	MOVQ out+32(FP), DX
	MOVQ CX, BX
	ANDQ $-4, BX          // n4 = k &^ 3
	LEAQ (SI)(CX*4), R9   // row 1
	LEAQ (R9)(CX*4), R10  // row 2
	LEAQ (R10)(CX*4), R11 // row 3
	MOVQ CX, R12
	SHLQ $4, R12          // four rows, in bytes
	SHRQ $2, DI           // row groups

grouploop:
	TESTQ DI, DI
	JZ    bdone
	XORPS X0, X0          // lanes are row 0's s0..s3
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX          // i = 0
	TESTQ BX, BX
	JZ    bvecdone

bvec:
	MOVUPS (R8)(AX*4), X4  // q[i:i+4], shared by all four rows
	MOVUPS (SI)(AX*4), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS (R9)(AX*4), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS (R10)(AX*4), X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVUPS (R11)(AX*4), X8
	MULPS  X4, X8
	ADDPS  X8, X3
	ADDQ   $4, AX
	CMPQ   AX, BX
	JL     bvec

bvecdone:
	REDUCE4(X0)
	REDUCE4(X1)
	REDUCE4(X2)
	REDUCE4(X3)

	CMPQ AX, CX
	JGE  bremdone

brem:
	MOVSS (R8)(AX*4), X4
	MOVSS (SI)(AX*4), X5
	MULSS X4, X5
	ADDSS X5, X0
	MOVSS (R9)(AX*4), X5
	MULSS X4, X5
	ADDSS X5, X1
	MOVSS (R10)(AX*4), X5
	MULSS X4, X5
	ADDSS X5, X2
	MOVSS (R11)(AX*4), X5
	MULSS X4, X5
	ADDSS X5, X3
	INCQ  AX
	CMPQ  AX, CX
	JL    brem

bremdone:
	MOVSS X0, (DX)
	MOVSS X1, 4(DX)
	MOVSS X2, 8(DX)
	MOVSS X3, 12(DX)
	ADDQ  $16, DX
	ADDQ  R12, SI          // next four candidate rows
	ADDQ  R12, R9
	ADDQ  R12, R10
	ADDQ  R12, R11
	DECQ  DI
	JMP   grouploop

bdone:
	RET
