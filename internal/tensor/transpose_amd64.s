//go:build amd64

#include "textflag.h"

// func transpose8x8AVX(dst *float32, ldBytes uintptr, r0, r1, r2, r3, r4, r5, r6, r7 *float32, blocks uintptr)
//
// packTransposed's whole blocks: for b < blocks and i, j < 8,
//
//	dst[(8b+j)·ld + i] = ri[8b+j]
//
// — eight runs along a panel's depth become eight columns of it, eight
// depths at a time. Each block is an 8×8 transpose in registers: VUNPCKLPS
// and VUNPCKHPS interleave pairs of runs, VSHUFPS gathers four runs per
// 128-bit lane, VPERM2F128 joins the lanes. Shuffles move bits and nothing
// else, so every float arrives as it left, NaN payloads included.
//
//	AX, BX, DX, SI, R10..R13  r0..r7
//	R9                        byte offset along the runs
//	DI                        destination row of depth 8b, advancing
//	R8                        destination row stride in bytes
TEXT ·transpose8x8AVX(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ ldBytes+8(FP), R8
	MOVQ r0+16(FP), AX
	MOVQ r1+24(FP), BX
	MOVQ r2+32(FP), DX
	MOVQ r3+40(FP), SI
	MOVQ r4+48(FP), R10
	MOVQ r5+56(FP), R11
	MOVQ r6+64(FP), R12
	MOVQ r7+72(FP), R13
	MOVQ blocks+80(FP), CX
	XORQ R9, R9

loop:
	VMOVUPS (AX)(R9*1), Y0
	VMOVUPS (BX)(R9*1), Y1
	VMOVUPS (DX)(R9*1), Y2
	VMOVUPS (SI)(R9*1), Y3
	VMOVUPS (R10)(R9*1), Y4
	VMOVUPS (R11)(R9*1), Y5
	VMOVUPS (R12)(R9*1), Y6
	VMOVUPS (R13)(R9*1), Y7

	// Pairs of runs interleaved: Y8 = r0[0] r1[0] r0[1] r1[1] | r0[4] …
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15

	// Four runs per lane: Y0 = r0[0] r1[0] r2[0] r3[0] | r0[4] … r3[4].
	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7

	// Low lanes make depths 0-3, high lanes depths 4-7.
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15

	VMOVUPS Y8, (DI)
	VMOVUPS Y9, (DI)(R8*1)
	LEAQ    (DI)(R8*2), DI
	VMOVUPS Y10, (DI)
	VMOVUPS Y11, (DI)(R8*1)
	LEAQ    (DI)(R8*2), DI
	VMOVUPS Y12, (DI)
	VMOVUPS Y13, (DI)(R8*1)
	LEAQ    (DI)(R8*2), DI
	VMOVUPS Y14, (DI)
	VMOVUPS Y15, (DI)(R8*1)
	LEAQ    (DI)(R8*2), DI

	ADDQ $32, R9
	DECQ CX
	JNZ  loop

	VZEROUPPER
	RET
