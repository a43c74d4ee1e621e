//go:build amd64

// The indirect forms of gemmKernel6x16fma (indirect.go): the same 6x16 tile,
// the same VFMADD231PS chain over the depth, ascending from +0, but one of the
// two operands is read out of a zero-bordered sample through a table of
// element offsets instead of out of a packed panel. Offsets are in floats;
// the loads scale them by 4.

#include "textflag.h"
#include "gemm_tile6x16_amd64.h"

// func gemmKernel6x16fmaIndB(c *float32, ldcBytes uintptr, ap, x0, x1 *float32, taps *int, kb, acc uint64)
//
// C[0:6, 0:16] (+)= Aᵖ·B with row p of B read in place: columns 0-7 are the
// eight floats at x0 + taps[p], columns 8-15 those at x1 + taps[p] — one
// kernel tap seen from eight consecutive output positions of a row, twice.
// Everything else is gemmKernel6x16fma: ap, c, ldcBytes, acc, and which FMA
// operand is which.
//
//	DI, BX  x0, x1
//	R11     taps, advancing
//	R12     the current tap's offset
TEXT ·gemmKernel6x16fmaIndB(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DX
	MOVQ ldcBytes+8(FP), R8
	MOVQ ap+16(FP), SI
	MOVQ x0+24(FP), DI
	MOVQ x1+32(FP), BX
	MOVQ taps+40(FP), R11
	MOVQ kb+48(FP), CX
	MOVQ acc+56(FP), AX
	ZERO6x16

loop:
	MOVQ    (R11), R12
	VMOVUPS (DI)(R12*4), Y0
	VMOVUPS (BX)(R12*4), Y1
	PACKEDA6x16
	ADDQ $8, R11
	DECQ CX
	JNZ  loop

	STORE6x16
	RET

// func gemmKernel6x16fmaIndA(tile, x *float32, taps, pos *int, bp *float32, kb uint64)
//
// tile[0:6, 0:16] = A·Bᵖ with A read in place: A(r, p) is the float at
// x + taps[r] + pos[p] — six kernel taps, each seen from output position p.
// bp is a packed B panel as for gemmKernel6x16fma; tile is 6 rows of 16,
// contiguous, overwritten.
//
// This is the weight gradient with the roles swapped: the lowered product
// broadcasts dy and streams the column matrix, here the column matrix is
// broadcast and dy streams. So the FMA's multiplicands swap places too
// (b·a + tile, where the others compute a·b + tile): the first multiplicand
// is still dy's value, and when two NaNs meet x86 keeps the first.
//
//	R8, R9, R10, R12, R13, BX  x + taps[0..5]
//	R11                        pos, advancing
//	AX                         the current position's offset
TEXT ·gemmKernel6x16fmaIndA(SB), NOSPLIT, $0-48
	MOVQ tile+0(FP), DX
	MOVQ x+8(FP), SI
	MOVQ taps+16(FP), AX
	MOVQ pos+24(FP), R11
	MOVQ bp+32(FP), DI
	MOVQ kb+40(FP), CX
	MOVQ (AX), R8
	LEAQ (SI)(R8*4), R8
	MOVQ 8(AX), R9
	LEAQ (SI)(R9*4), R9
	MOVQ 16(AX), R10
	LEAQ (SI)(R10*4), R10
	MOVQ 24(AX), R12
	LEAQ (SI)(R12*4), R12
	MOVQ 32(AX), R13
	LEAQ (SI)(R13*4), R13
	MOVQ 40(AX), BX
	LEAQ (SI)(BX*4), BX
	ZERO6x16

loop:
	MOVQ    (R11), AX
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1

	VBROADCASTSS (R8)(AX*4), Y2
	VFMADD231PS  Y2, Y0, Y4
	VFMADD231PS  Y2, Y1, Y5

	VBROADCASTSS (R9)(AX*4), Y3
	VFMADD231PS  Y3, Y0, Y6
	VFMADD231PS  Y3, Y1, Y7

	VBROADCASTSS (R10)(AX*4), Y2
	VFMADD231PS  Y2, Y0, Y8
	VFMADD231PS  Y2, Y1, Y9

	VBROADCASTSS (R12)(AX*4), Y3
	VFMADD231PS  Y3, Y0, Y10
	VFMADD231PS  Y3, Y1, Y11

	VBROADCASTSS (R13)(AX*4), Y2
	VFMADD231PS  Y2, Y0, Y12
	VFMADD231PS  Y2, Y1, Y13

	VBROADCASTSS (BX)(AX*4), Y3
	VFMADD231PS  Y3, Y0, Y14
	VFMADD231PS  Y3, Y1, Y15

	ADDQ $64, DI
	ADDQ $8, R11
	DECQ CX
	JNZ  loop

	MOVQ $64, R8
	XORQ AX, AX
	STORE6x16
	RET
