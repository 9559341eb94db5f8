// SSE2 micro-kernels for the batched query panel. Baseline amd64
// instructions only (no AVX/FMA), so there is no CPUID dispatch and —
// critically — no fused multiply-add: MULPS/ADDPS round each lane
// exactly like the scalar MULSS/ADDSS pair, which is what keeps the
// panel bit-identical to dotUnrolled (see panel.go).

#include "textflag.h"

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
	// Reduce each accumulator to lane 0 as (s0+s1)+(s2+s3).
	MOVAPS X0, X5
	SHUFPS $0x55, X5, X5   // all lanes = s1
	MOVAPS X0, X6
	SHUFPS $0xAA, X6, X6   // all lanes = s2
	MOVAPS X0, X7
	SHUFPS $0xFF, X7, X7   // all lanes = s3
	ADDSS  X5, X0          // s0+s1
	ADDSS  X7, X6          // s2+s3
	ADDSS  X6, X0

	MOVAPS X1, X5
	SHUFPS $0x55, X5, X5
	MOVAPS X1, X6
	SHUFPS $0xAA, X6, X6
	MOVAPS X1, X7
	SHUFPS $0xFF, X7, X7
	ADDSS  X5, X1
	ADDSS  X7, X6
	ADDSS  X6, X1

	MOVAPS X2, X5
	SHUFPS $0x55, X5, X5
	MOVAPS X2, X6
	SHUFPS $0xAA, X6, X6
	MOVAPS X2, X7
	SHUFPS $0xFF, X7, X7
	ADDSS  X5, X2
	ADDSS  X7, X6
	ADDSS  X6, X2

	MOVAPS X3, X5
	SHUFPS $0x55, X5, X5
	MOVAPS X3, X6
	SHUFPS $0xAA, X6, X6
	MOVAPS X3, X7
	SHUFPS $0xFF, X7, X7
	ADDSS  X5, X3
	ADDSS  X7, X6
	ADDSS  X6, X3

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
