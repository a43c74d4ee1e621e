// amd64 SGEMM micro-kernels. See gemm_kernel_amd64.go for the contracts and
// gemm.go for the packing layout they consume. Three routines share the
// argument frame and loop shape:
//
//	gemmKernel4x8     SSE multiply-then-add (non-FMA machines)
//	gemmKernel4x8fma  same 4x8 tile, VFMADD231PS accumulation
//	gemmKernel6x16fma AVX2 6x16 tile, VFMADD231PS accumulation
//
// Register plan:
//
//	SI  ap   packed A panel: kb groups of 4 floats (one per C row)
//	DI  bp   packed B panel: kb groups of 8 floats (one per C column)
//	DX  c    top-left of the 4x8 C tile
//	R8  ldc  C row stride in bytes
//	CX  kb   shared K depth
//	AX  acc  1 = accumulate into C, 0 = overwrite
//
//	X0..X7   the 4x8 tile: row r is X(2r) (cols 0-3) and X(2r+1) (cols 4-7)
//	X8,X9    current 8 B values
//	X10,X11  broadcast A value / product temporaries

#include "textflag.h"
#include "gemm_tile6x16_amd64.h"

// func gemmKernel4x8(c *float32, ldcBytes uintptr, ap, bp *float32, kb, acc uint64)
TEXT ·gemmKernel4x8(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DX
	MOVQ ldcBytes+8(FP), R8
	MOVQ ap+16(FP), SI
	MOVQ bp+24(FP), DI
	MOVQ kb+32(FP), CX
	MOVQ acc+40(FP), AX

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

loop:
	MOVUPS (DI), X8
	MOVUPS 16(DI), X9

	MOVSS  (SI), X10
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X0
	ADDPS  X11, X1

	MOVSS  4(SI), X10
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X2
	ADDPS  X11, X3

	MOVSS  8(SI), X10
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X4
	ADDPS  X11, X5

	MOVSS  12(SI), X10
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X6
	ADDPS  X11, X7

	ADDQ $16, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop

	LEAQ  (DX)(R8*2), R9
	TESTQ AX, AX
	JZ    store

	MOVUPS (DX), X8
	ADDPS  X8, X0
	MOVUPS 16(DX), X8
	ADDPS  X8, X1
	MOVUPS (DX)(R8*1), X8
	ADDPS  X8, X2
	MOVUPS 16(DX)(R8*1), X8
	ADDPS  X8, X3
	MOVUPS (R9), X8
	ADDPS  X8, X4
	MOVUPS 16(R9), X8
	ADDPS  X8, X5
	MOVUPS (R9)(R8*1), X8
	ADDPS  X8, X6
	MOVUPS 16(R9)(R8*1), X8
	ADDPS  X8, X7

store:
	MOVUPS X0, (DX)
	MOVUPS X1, 16(DX)
	MOVUPS X2, (DX)(R8*1)
	MOVUPS X3, 16(DX)(R8*1)
	MOVUPS X4, (R9)
	MOVUPS X5, 16(R9)
	MOVUPS X6, (R9)(R8*1)
	MOVUPS X7, 16(R9)(R8*1)
	RET

// func gemmKernel4x8fma(c *float32, ldcBytes uintptr, ap, bp *float32, kb, acc uint64)
//
// Register plan as gemmKernel4x8 (X0..X7 hold the tile), but each step is a
// VBROADCASTSS plus two fused multiply-adds: one rounding per accumulation,
// matching fmaf32 and the 6x16 kernel bit-for-bit. VEX.128 encodings zero
// the upper YMM lanes, so no VZEROUPPER is needed.
TEXT ·gemmKernel4x8fma(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DX
	MOVQ ldcBytes+8(FP), R8
	MOVQ ap+16(FP), SI
	MOVQ bp+24(FP), DI
	MOVQ kb+32(FP), CX
	MOVQ acc+40(FP), AX

	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	VXORPS X6, X6, X6
	VXORPS X7, X7, X7

fmaloop:
	VMOVUPS (DI), X8
	VMOVUPS 16(DI), X9

	VBROADCASTSS (SI), X10
	VFMADD231PS  X8, X10, X0
	VFMADD231PS  X9, X10, X1

	VBROADCASTSS 4(SI), X11
	VFMADD231PS  X8, X11, X2
	VFMADD231PS  X9, X11, X3

	VBROADCASTSS 8(SI), X10
	VFMADD231PS  X8, X10, X4
	VFMADD231PS  X9, X10, X5

	VBROADCASTSS 12(SI), X11
	VFMADD231PS  X8, X11, X6
	VFMADD231PS  X9, X11, X7

	ADDQ $16, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  fmaloop

	LEAQ  (DX)(R8*2), R9
	TESTQ AX, AX
	JZ    fmastore

	VMOVUPS (DX), X8
	VADDPS  X8, X0, X0
	VMOVUPS 16(DX), X8
	VADDPS  X8, X1, X1
	VMOVUPS (DX)(R8*1), X8
	VADDPS  X8, X2, X2
	VMOVUPS 16(DX)(R8*1), X8
	VADDPS  X8, X3, X3
	VMOVUPS (R9), X8
	VADDPS  X8, X4, X4
	VMOVUPS 16(R9), X8
	VADDPS  X8, X5, X5
	VMOVUPS (R9)(R8*1), X8
	VADDPS  X8, X6, X6
	VMOVUPS 16(R9)(R8*1), X8
	VADDPS  X8, X7, X7

fmastore:
	VMOVUPS X0, (DX)
	VMOVUPS X1, 16(DX)
	VMOVUPS X2, (DX)(R8*1)
	VMOVUPS X3, 16(DX)(R8*1)
	VMOVUPS X4, (R9)
	VMOVUPS X5, 16(R9)
	VMOVUPS X6, (R9)(R8*1)
	VMOVUPS X7, 16(R9)(R8*1)
	RET

// func gemmKernel6x16fma(c *float32, ldcBytes uintptr, ap, bp *float32, kb, acc uint64)
//
// Register plan (tile registers and the shared steps: gemm_tile6x16_amd64.h):
//
//	SI  ap   packed A panel: kb groups of 6 floats (one per C row)
//	DI  bp   packed B panel: kb groups of 16 floats (one per C column)
//	DX  c    top-left of the 6x16 C tile
//	R8  ldc  C row stride in bytes
//	CX  kb   shared K depth
//	AX  acc  1 = accumulate into C, 0 = overwrite
TEXT ·gemmKernel6x16fma(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DX
	MOVQ ldcBytes+8(FP), R8
	MOVQ ap+16(FP), SI
	MOVQ bp+24(FP), DI
	MOVQ kb+32(FP), CX
	MOVQ acc+40(FP), AX
	ZERO6x16

loop:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	PACKEDA6x16
	ADDQ $64, DI
	DECQ CX
	JNZ  loop

	STORE6x16
	RET
