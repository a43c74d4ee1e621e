//go:build amd64

// AVX2 kernels of the element-wise passes (elementwise.go) over whole vectors
// of eight; the Go callers loop over the rest. Each lane repeats the Go
// loop's operations in its order, and where an add may see two NaNs the first
// source is the operand the compiler puts first, so payloads agree too.

#include "textflag.h"

// ewMask: a w-lane mask starts w lanes before the zeros. ewEvens: the
// top-left columns of four windows, twice.
DATA ewMask<>+0(SB)/8, $0xffffffffffffffff
DATA ewMask<>+8(SB)/8, $0xffffffffffffffff
DATA ewMask<>+16(SB)/8, $0xffffffffffffffff
DATA ewMask<>+24(SB)/8, $0xffffffffffffffff
DATA ewMask<>+32(SB)/8, $0
DATA ewMask<>+40(SB)/8, $0
DATA ewMask<>+48(SB)/8, $0
DATA ewMask<>+56(SB)/8, $0
GLOBL ewMask<>(SB), RODATA|NOPTR, $64
DATA ewEvens<>+0(SB)/8, $0x0000000200000000
DATA ewEvens<>+8(SB)/8, $0x0000000600000004
DATA ewEvens<>+16(SB)/8, $0x0000000200000000
DATA ewEvens<>+24(SB)/8, $0x0000000600000004
GLOBL ewEvens<>(SB), RODATA|NOPTR, $32

// RELU maps x to x > 0 ? x : +0: VMAXPS returns its second source (+0) unless
// the first compares greater, so NaN, −0 and negatives give +0.
#define RELU(r) VMAXPS Y0, r, r

// func reluAVX(dst, src *float32, n uintptr)
TEXT ·reluAVX(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	SHRQ   $3, CX
	VXORPS Y0, Y0, Y0
reluloop:
	VMOVUPS (SI), Y1
	RELU(Y1)
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     reluloop
	VZEROUPPER
	RET

// func reluGradAVX(dx, dy, y *float32, n uintptr): dx = y's bits ≠ 0 ? dy : +0
TEXT ·reluGradAVX(SB), NOSPLIT, $0-32
	MOVQ  dx+0(FP), DI
	MOVQ  dy+8(FP), SI
	MOVQ  y+16(FP), DX
	MOVQ  n+24(FP), CX
	SHRQ  $3, CX
	VPXOR Y0, Y0, Y0
rgradloop:
	VPCMPEQD (DX), Y0, Y1
	VPANDN   (SI), Y1, Y1
	VMOVDQU  Y1, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DX
	ADDQ     $32, DI
	DECQ     CX
	JNZ      rgradloop
	VZEROUPPER
	RET

// The pooling kernels walk blocks of eight 2×2 windows: four windows' top
// rows at SI, four more at BX = SI + H, bottom rows one input row (R11)
// further; a block advances SI by 2H. With outW a multiple of 8 a block is
// eight windows of a row (H = 32 bytes) and each row of blocks skips the
// bottom input row; with outW = 4 it is four windows of two rows (H = 64, no
// skip). POOLSETUP takes rows in DX and outW in R9; it leaves rows to walk in
// DX, blocks per row in R9, the skip in R13, H in R12, the input's start in
// R10, and int32 lanes Y12 = inW + 1, Y13 = inW, Y14 = 1 and Y15 the
// windows' top-left offsets in a block.
#define POOLSETUP \
	LEAQ         (R9*8), R11; \
	MOVQ         $32, R12; \
	MOVQ         R11, R13; \
	MOVQ         $64, AX; \
	MOVQ         DX, BX; \
	SHRQ         $1, BX; \
	MOVQ         $1, CX; \
	SHRQ         $3, R9; \
	XORQ         R14, R14; \
	CMPQ         R11, $32; \
	CMOVQEQ      AX, R12; \
	CMOVQEQ      R14, R13; \
	CMOVQEQ      BX, DX; \
	CMOVQEQ      CX, R9; \
	MOVQ         SI, R10; \
	MOVQ         R12, AX; \
	SHRQ         $2, AX; \
	VMOVD        AX, X15; \
	VPBROADCASTD X15, Y15; \
	VMOVDQU      ewMask<>+16(SB), Y14; \
	VPANDN       Y15, Y14, Y15; \
	VPADDD       ewEvens<>(SB), Y15, Y15; \
	MOVQ         R11, AX; \
	SHRQ         $2, AX; \
	VMOVD        AX, X13; \
	VPBROADCASTD X13, Y13; \
	VPCMPEQD     Y14, Y14, Y14; \
	VPSRLD       $31, Y14, Y14; \
	VPADDD       Y14, Y13, Y12

// POOLBASE sets BX = SI + H and Y11's lanes to the flat index at SI.
#define POOLBASE \
	LEAQ         (SI)(R12*1), BX; \
	MOVQ         SI, AX; \
	SUBQ         R10, AX; \
	SHRQ         $2, AX; \
	VMOVD        AX, X11; \
	VPBROADCASTD X11, Y11

// POOLGT is the window compare: the Go loop's strict >, false on a NaN.
#define POOLGT $0x1e

// func maxPool2x2AVX(out *float32, arg *int32, in *float32, rows, outW uintptr)
// outW is a multiple of 8, or 4 with rows even. VSHUFPS splits the rows into
// even and odd columns, windows in the order 0, 1, 4, 5, 2, 3, 6, 7 (Y15's
// too) until the VPERMPDs; the candidates are compared in scan order and the
// winner and its offset (0, 1, inW, inW + 1) carried by blends.
TEXT ·maxPool2x2AVX(SB), NOSPLIT, $0-40
	MOVQ    out+0(FP), DI
	MOVQ    arg+8(FP), R8
	MOVQ    in+16(FP), SI
	MOVQ    rows+24(FP), DX
	MOVQ    outW+32(FP), R9
	POOLSETUP
	VPERMPD $0xd8, Y15, Y15
poolrow:
	MOVQ R9, CX
poolblock:
	POOLBASE
	VMOVUPS   (SI), Y0
	VMOVUPS   (BX), Y1
	VMOVUPS   (SI)(R11*1), Y2
	VMOVUPS   (BX)(R11*1), Y3
	VSHUFPS   $0x88, Y1, Y0, Y4
	VSHUFPS   $0xdd, Y1, Y0, Y5
	VSHUFPS   $0x88, Y3, Y2, Y6
	VSHUFPS   $0xdd, Y3, Y2, Y7
	VCMPPS    POOLGT, Y4, Y5, Y8
	VBLENDVPS Y8, Y5, Y4, Y4
	VPAND     Y14, Y8, Y10
	VCMPPS    POOLGT, Y4, Y6, Y8
	VBLENDVPS Y8, Y6, Y4, Y4
	VBLENDVPS Y8, Y13, Y10, Y10
	VCMPPS    POOLGT, Y4, Y7, Y8
	VBLENDVPS Y8, Y7, Y4, Y4
	VBLENDVPS Y8, Y12, Y10, Y10
	VPADDD    Y15, Y10, Y10
	VPADDD    Y11, Y10, Y10
	VPERMPD   $0xd8, Y4, Y4
	VPERMPD   $0xd8, Y10, Y10
	VMOVUPS   Y4, (DI)
	VMOVDQU   Y10, (R8)
	LEAQ      (SI)(R12*2), SI
	ADDQ      $32, DI
	ADDQ      $32, R8
	DECQ      CX
	JNZ       poolblock
	ADDQ      R13, SI
	DECQ      DX
	JNZ       poolrow
	VZEROUPPER
	RET

// func maxPool2x2GradAVX(dx, dy *float32, arg *int32, rows, outW uintptr)
// maxPool2x2AVX's blocks, written in place: a window's offset is its argmax
// minus its top-left, its maximum becomes 0 + dy (the Go loop's add into a
// zeroed dx), the rest +0; unpacks and VPERM2F128 put the corners in rows.
TEXT ·maxPool2x2GradAVX(SB), NOSPLIT, $0-40
	MOVQ  dx+0(FP), SI
	MOVQ  dy+8(FP), DI
	MOVQ  arg+16(FP), R8
	MOVQ  rows+24(FP), DX
	MOVQ  outW+32(FP), R9
	POOLSETUP
	VPXOR Y9, Y9, Y9
gradrow:
	MOVQ R9, CX
gradblock:
	POOLBASE
	VPADDD     Y15, Y11, Y11
	VMOVDQU    (R8), Y0
	VPSUBD     Y11, Y0, Y0
	VADDPS     (DI), Y9, Y1
	VPCMPEQD   Y9, Y0, Y4
	VPCMPEQD   Y14, Y0, Y5
	VPCMPEQD   Y13, Y0, Y6
	VPCMPEQD   Y12, Y0, Y7
	VPAND      Y1, Y4, Y4
	VPAND      Y1, Y5, Y5
	VPAND      Y1, Y6, Y6
	VPAND      Y1, Y7, Y7
	VUNPCKLPS  Y5, Y4, Y8
	VUNPCKHPS  Y5, Y4, Y5
	VPERM2F128 $0x20, Y5, Y8, Y2
	VPERM2F128 $0x31, Y5, Y8, Y3
	VUNPCKLPS  Y7, Y6, Y8
	VUNPCKHPS  Y7, Y6, Y7
	VPERM2F128 $0x20, Y7, Y8, Y4
	VPERM2F128 $0x31, Y7, Y8, Y5
	VMOVUPS    Y2, (SI)
	VMOVUPS    Y3, (BX)
	VMOVUPS    Y4, (SI)(R11*1)
	VMOVUPS    Y5, (BX)(R11*1)
	LEAQ       (SI)(R12*2), SI
	ADDQ       $32, DI
	ADDQ       $32, R8
	DECQ       CX
	JNZ        gradblock
	ADDQ       R13, SI
	DECQ       DX
	JNZ        gradrow
	VZEROUPPER
	RET

// func addBiasAVX(y, bias *float32, c, area uintptr)
// area is a multiple of 8. A ±0 bias is skipped, as the Go loop's == 0 does;
// the bias is added to the plane, the loop's order.
TEXT ·addBiasAVX(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ bias+8(FP), SI
	MOVQ c+16(FP), DX
	MOVQ area+24(FP), R9
	SHRQ $3, R9
biaschan:
	MOVQ         R9, CX
	MOVL         (SI), AX
	ANDL         $0x7fffffff, AX
	JZ           biasskip
	VBROADCASTSS (SI), Y0
biasloop:
	VMOVUPS (DI), Y1
	VADDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     biasloop
	JMP     biasnext
biasskip:
	SHLQ $5, CX
	ADDQ CX, DI
biasnext:
	ADDQ $4, SI
	DECQ DX
	JNZ  biaschan
	VZEROUPPER
	RET

// BGROW points reg at lane l's plane, one past prev's, or at lane 0's (SI)
// once l is past the channels left (DX): summed but not stored.
#define BGROW(l, prev, reg) \
	LEAQ    (prev)(R9*1), reg; \
	CMPQ    DX, $l; \
	CMOVQLE SI, reg

// func addBiasGradAVX(db, dy *float32, c, area uintptr)
// area is a multiple of 8. Eight channels at a time, one to a lane: each step
// loads eight elements of eight planes, transposes the 8×8 block and adds its
// columns in index order, so each lane sums its plane from +0 as the Go loop
// does; the sum is then added to db (sum first, the loop's order) through a
// lane mask.
TEXT ·addBiasGradAVX(SB), NOSPLIT, $0-32
	MOVQ db+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ c+16(FP), DX
	MOVQ area+24(FP), R9
	SHLQ $2, R9
bggroup:
	BGROW(1, SI, R8)
	BGROW(2, R8, R10)
	BGROW(3, R10, R11)
	BGROW(4, R11, R12)
	BGROW(5, R12, R13)
	BGROW(6, R13, R14)
	BGROW(7, R14, BX)
	VXORPS Y15, Y15, Y15
	XORQ   CX, CX
bgblock:
	VMOVUPS    (SI)(CX*1), Y0
	VMOVUPS    (R8)(CX*1), Y1
	VMOVUPS    (R10)(CX*1), Y2
	VMOVUPS    (R11)(CX*1), Y3
	VMOVUPS    (R12)(CX*1), Y4
	VMOVUPS    (R13)(CX*1), Y5
	VMOVUPS    (R14)(CX*1), Y6
	VMOVUPS    (BX)(CX*1), Y7
	VUNPCKLPS  Y1, Y0, Y8
	VUNPCKHPS  Y1, Y0, Y9
	VUNPCKLPS  Y3, Y2, Y0
	VUNPCKHPS  Y3, Y2, Y1
	VUNPCKLPS  Y5, Y4, Y2
	VUNPCKHPS  Y5, Y4, Y3
	VUNPCKLPS  Y7, Y6, Y4
	VUNPCKHPS  Y7, Y6, Y5
	VSHUFPS    $0x44, Y0, Y8, Y6
	VSHUFPS    $0xee, Y0, Y8, Y7
	VSHUFPS    $0x44, Y1, Y9, Y8
	VSHUFPS    $0xee, Y1, Y9, Y9
	VSHUFPS    $0x44, Y4, Y2, Y0
	VSHUFPS    $0xee, Y4, Y2, Y1
	VSHUFPS    $0x44, Y5, Y3, Y2
	VSHUFPS    $0xee, Y5, Y3, Y3
	VPERM2F128 $0x20, Y0, Y6, Y4
	VADDPS     Y4, Y15, Y15
	VPERM2F128 $0x20, Y1, Y7, Y4
	VADDPS     Y4, Y15, Y15
	VPERM2F128 $0x20, Y2, Y8, Y4
	VADDPS     Y4, Y15, Y15
	VPERM2F128 $0x20, Y3, Y9, Y4
	VADDPS     Y4, Y15, Y15
	VPERM2F128 $0x31, Y0, Y6, Y4
	VADDPS     Y4, Y15, Y15
	VPERM2F128 $0x31, Y1, Y7, Y4
	VADDPS     Y4, Y15, Y15
	VPERM2F128 $0x31, Y2, Y8, Y4
	VADDPS     Y4, Y15, Y15
	VPERM2F128 $0x31, Y3, Y9, Y4
	VADDPS     Y4, Y15, Y15
	ADDQ       $32, CX
	CMPQ       CX, R9
	JNE        bgblock

	MOVQ       $8, AX
	CMPQ       DX, AX
	CMOVQLT    DX, AX
	SHLQ       $2, AX
	NEGQ       AX
	LEAQ       ewMask<>+32(SB), CX
	VMOVDQU    (CX)(AX*1), Y14
	VMASKMOVPS (DI), Y14, Y1
	VADDPS     Y1, Y15, Y15
	VMASKMOVPS Y15, Y14, (DI)
	ADDQ       $32, DI
	LEAQ       (BX)(R9*1), SI
	SUBQ       $8, DX
	JG         bggroup
	VZEROUPPER
	RET

// SGDDECAY sets the gradient Y1 to Y1 + w·wd (w in Y2) if wd ≠ 0 (Y12 all
// ones); the blend keeps the loop's skipped add skipped. Uses Y4.
#define SGDDECAY \
	VMULPS    Y15, Y2, Y4; \
	VADDPS    Y4, Y1, Y4; \
	VBLENDVPS Y12, Y4, Y1, Y1

// func sgdStepAVX(w, grad, v *float32, n uintptr, lr, mom, wd float32)
// Without momentum (v nil) w = g·lr + w; with it v = g + v·mom, w = v·lr + w.
TEXT ·sgdStepAVX(SB), NOSPLIT, $0-44
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         v+16(FP), R8
	MOVQ         n+24(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS lr+32(FP), Y13
	VBROADCASTSS mom+36(FP), Y14
	VBROADCASTSS wd+40(FP), Y15
	VXORPS       Y12, Y12, Y12
	VCMPPS       $4, Y12, Y15, Y12
	TESTQ        R8, R8
	JZ           plainloop
momloop:
	VMOVUPS (SI), Y1
	VMOVUPS (DI), Y2
	VMOVUPS (R8), Y3
	SGDDECAY
	VMULPS  Y14, Y3, Y3
	VADDPS  Y3, Y1, Y3
	VMULPS  Y13, Y3, Y4
	VADDPS  Y2, Y4, Y2
	VMOVUPS Y3, (R8)
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	DECQ    CX
	JNZ     momloop
	JMP     sgddone
plainloop:
	VMOVUPS (SI), Y1
	VMOVUPS (DI), Y2
	SGDDECAY
	VMULPS  Y13, Y1, Y4
	VADDPS  Y2, Y4, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     plainloop
sgddone:
	VZEROUPPER
	RET
