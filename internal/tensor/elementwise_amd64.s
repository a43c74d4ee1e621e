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

// ewIota: the int32 lane numbers.
DATA ewIota<>+0(SB)/8, $0x0000000100000000
DATA ewIota<>+8(SB)/8, $0x0000000300000002
DATA ewIota<>+16(SB)/8, $0x0000000500000004
DATA ewIota<>+24(SB)/8, $0x0000000700000006
GLOBL ewIota<>(SB), RODATA|NOPTR, $32

// func addToAVX(dst, src *float32, n uintptr): dst = dst + src, dst first.
TEXT ·addToAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX
addtoloop:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     addtoloop
	VZEROUPPER
	RET

// func subIntoAVX(dst, a, b *float32, n uintptr): dst = a − b.
TEXT ·subIntoAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $3, CX
subloop:
	VMOVUPS (SI), Y0
	VSUBPS  (DX), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     subloop
	VZEROUPPER
	RET

// func addRowSumsAVX(dst, rows *float32, cols, width, nrows uintptr)
// cols is a multiple of 8 and nrows at least 1. Each lane of an accumulator
// holds one column of dst and adds the rows to it in ascending order, the Go
// loop's adds; four vectors of columns at a time while 32 are left, so four
// chains overlap, then one.
TEXT ·addRowSumsAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ cols+16(FP), CX
	MOVQ width+24(FP), R9
	SHLQ $2, R9
	MOVQ nrows+32(FP), DX
rsfour:
	CMPQ    CX, $32
	JLT     rsone
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    SI, AX
	MOVQ    DX, BX
rsfourrow:
	VADDPS (AX), Y0, Y0
	VADDPS 32(AX), Y1, Y1
	VADDPS 64(AX), Y2, Y2
	VADDPS 96(AX), Y3, Y3
	ADDQ   R9, AX
	DECQ   BX
	JNZ    rsfourrow
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, CX
	JMP     rsfour
rsone:
	TESTQ   CX, CX
	JZ      rsdone
	VMOVUPS (DI), Y0
	MOVQ    SI, AX
	MOVQ    DX, BX
rsonerow:
	VADDPS (AX), Y0, Y0
	ADDQ   R9, AX
	DECQ   BX
	JNZ    rsonerow
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JMP     rsone
rsdone:
	VZEROUPPER
	RET

// func lstmCellAVX(c, fg, cPrev, ig, gg *float32, n uintptr): c = fg·cPrev +
// ig·gg, both products rounded before the add. The compiled loop multiplies
// cPrev·fg and gg·ig, first source first, and so does the kernel.
TEXT ·lstmCellAVX(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ fg+8(FP), SI
	MOVQ cPrev+16(FP), R8
	MOVQ ig+24(FP), R9
	MOVQ gg+32(FP), R10
	MOVQ n+40(FP), CX
	SHRQ $3, CX
cellloop:
	VMOVUPS (R8), Y0
	VMULPS  (SI), Y0, Y0
	VMOVUPS (R10), Y1
	VMULPS  (R9), Y1, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, DI
	DECQ    CX
	JNZ     cellloop
	VZEROUPPER
	RET

// func lstmHiddenAVX(h, out, o, tc *float32, n uintptr): h = out = o·tc.
TEXT ·lstmHiddenAVX(SB), NOSPLIT, $0-40
	MOVQ h+0(FP), DI
	MOVQ out+8(FP), DX
	MOVQ o+16(FP), SI
	MOVQ tc+24(FP), R8
	MOVQ n+32(FP), CX
	SHRQ $3, CX
hidloop:
	VMOVUPS (SI), Y0
	VMULPS  (R8), Y0, Y0
	VMOVUPS Y0, (DI)
	VMOVUPS Y0, (DX)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, DI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     hidloop
	VZEROUPPER
	RET

// GATEOUT stores the gate gradient Y7 to dz and adds it to db, db first.
#define GATEOUT(dz, db) \
	VMOVUPS Y7, dz; \
	VMOVUPS db, Y8; \
	VADDPS  Y7, Y8, Y8; \
	VMOVUPS Y8, db

// func lstmGateGradsAVX(dz, db, gates, dout, dhNext, dcNext, tanhC, cPrev, dcPrev *float32, h, n uintptr)
// dz, db and gates are rows of four quarters h floats apart (DX bytes; BX is
// three quarters). Each product is associated as in the loop and rounded;
// where the compiled loop swaps the operands of a product or a sum, so does
// the kernel (first source first): dc = (1 − t²)·(dh·o) + dcNext, then
// (1 − i)·(dc·g·i), cPrev·dc·f·(1 − f), (1 − g²)·(i·dc) and t·dh·o·(1 − o).
TEXT ·lstmGateGradsAVX(SB), NOSPLIT, $0-88
	MOVQ         dz+0(FP), DI
	MOVQ         db+8(FP), R8
	MOVQ         gates+16(FP), SI
	MOVQ         dout+24(FP), R9
	MOVQ         dhNext+32(FP), R10
	MOVQ         dcNext+40(FP), R11
	MOVQ         tanhC+48(FP), R12
	MOVQ         cPrev+56(FP), R13
	MOVQ         dcPrev+64(FP), R14
	MOVQ         h+72(FP), DX
	SHLQ         $2, DX
	LEAQ         (DX)(DX*2), BX
	MOVQ         n+80(FP), CX
	SHRQ         $3, CX
	MOVL         $0x3f800000, AX
	VMOVD        AX, X15
	VBROADCASTSS X15, Y15
gateloop:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(DX*1), Y1
	VMOVUPS (SI)(DX*2), Y2
	VMOVUPS (SI)(BX*1), Y3
	VMOVUPS (R12), Y4
	VMOVUPS (R9), Y5
	VADDPS  (R10), Y5, Y5
	VMULPS  Y4, Y4, Y7
	VSUBPS  Y7, Y15, Y7
	VMULPS  Y3, Y5, Y8
	VMULPS  Y8, Y7, Y8
	VADDPS  (R11), Y8, Y6
	VMULPS  Y2, Y6, Y7
	VMULPS  Y0, Y7, Y7
	VSUBPS  Y0, Y15, Y8
	VMULPS  Y7, Y8, Y7
	GATEOUT((DI), (R8))
	VMOVUPS (R13), Y7
	VMULPS  Y6, Y7, Y7
	VMULPS  Y1, Y7, Y7
	VSUBPS  Y1, Y15, Y8
	VMULPS  Y8, Y7, Y7
	GATEOUT((DI)(DX*1), (R8)(DX*1))
	VMULPS  Y6, Y0, Y7
	VMULPS  Y2, Y2, Y8
	VSUBPS  Y8, Y15, Y8
	VMULPS  Y7, Y8, Y7
	GATEOUT((DI)(DX*2), (R8)(DX*2))
	VMULPS  Y5, Y4, Y7
	VMULPS  Y3, Y7, Y7
	VSUBPS  Y3, Y15, Y8
	VMULPS  Y8, Y7, Y7
	GATEOUT((DI)(BX*1), (R8)(BX*1))
	VMULPS  Y1, Y6, Y7
	VMOVUPS Y7, (R14)
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $32, R12
	ADDQ    $32, R13
	ADDQ    $32, R14
	DECQ    CX
	JNZ     gateloop
	VZEROUPPER
	RET

// func clipAVX(xs *float32, n uintptr, lo, hi float32)
// VMINPS returns its second source unless the first is less, so min(hi, x)
// is hi only where x > hi and keeps a NaN; max(lo, ·) likewise.
TEXT ·clipAVX(SB), NOSPLIT, $0-24
	MOVQ         xs+0(FP), DI
	MOVQ         n+8(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS lo+16(FP), Y0
	VBROADCASTSS hi+20(FP), Y1
cliploop:
	VMOVUPS (DI), Y2
	VMINPS  Y2, Y1, Y2
	VMAXPS  Y2, Y0, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     cliploop
	VZEROUPPER
	RET

// ARGPICK makes each lane of (Y0 value, Y1 index) the better of itself and
// (Y4, Y5): the greater value, a value over a NaN, the lower index of equal
// values. Uses Y6–Y8.
#define ARGPICK \
	VCMPPS    $0x1e, Y0, Y4, Y6; \
	VCMPPS    $3, Y0, Y0, Y7; \
	VORPS     Y7, Y6, Y6; \
	VCMPPS    $0, Y0, Y4, Y7; \
	VPCMPGTD  Y5, Y1, Y8; \
	VPAND     Y8, Y7, Y7; \
	VPOR      Y7, Y6, Y6; \
	VBLENDVPS Y6, Y4, Y0, Y0; \
	VBLENDVPS Y6, Y5, Y1, Y1

// func argMaxAVX(xs *float32, n uintptr) uintptr
// n is a multiple of 8 and xs[0] not a NaN. Lane l scans elements l, l + 8,
// … with the Go loop's strict >, taking the next element too while it holds
// a NaN, so it ends with its first maximal element; the lanes then pick the
// lowest index of the greatest value.
TEXT ·argMaxAVX(SB), NOSPLIT, $0-24
	MOVQ         xs+0(FP), SI
	MOVQ         n+8(FP), CX
	SHRQ         $3, CX
	VMOVUPS      (SI), Y0
	VMOVDQU      ewIota<>(SB), Y1
	VMOVDQU      Y1, Y2
	MOVL         $8, AX
	VMOVD        AX, X3
	VPBROADCASTD X3, Y3
	DECQ         CX
	JZ           argreduce
argloop:
	ADDQ      $32, SI
	VPADDD    Y3, Y2, Y2
	VMOVUPS   (SI), Y4
	VCMPPS    $0x1e, Y0, Y4, Y5
	VCMPPS    $3, Y0, Y0, Y6
	VORPS     Y6, Y5, Y5
	VBLENDVPS Y5, Y4, Y0, Y0
	VBLENDVPS Y5, Y2, Y1, Y1
	DECQ      CX
	JNZ       argloop
argreduce:
	VPERM2F128 $0x01, Y0, Y0, Y4
	VPERM2F128 $0x01, Y1, Y1, Y5
	ARGPICK
	VPERMILPS  $0x4e, Y0, Y4
	VPERMILPS  $0x4e, Y1, Y5
	ARGPICK
	VPERMILPS  $0xb1, Y0, Y4
	VPERMILPS  $0xb1, Y1, Y5
	ARGPICK
	VMOVD      X1, AX
	MOVQ       AX, ret+16(FP)
	VZEROUPPER
	RET

// func subWidenAVX(dst *float64, src *float32, n uintptr, s float32)
// dst = float64(src − s): the float32 difference, widened exactly.
TEXT ·subWidenAVX(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS s+24(FP), Y0
widenloop:
	VMOVUPS      (SI), Y1
	VSUBPS       Y0, Y1, Y1
	VCVTPS2PD    X1, Y2
	VEXTRACTF128 $1, Y1, X1
	VCVTPS2PD    X1, Y3
	VMOVUPD      Y2, (DI)
	VMOVUPD      Y3, 32(DI)
	ADDQ         $32, SI
	ADDQ         $64, DI
	DECQ         CX
	JNZ          widenloop
	VZEROUPPER
	RET

// func divNarrowScaleAVX(dst *float32, src *float64, n uintptr, d float64, s float32)
// dst = float32(src/d)·s: the quotient rounded to float32, then scaled.
TEXT ·divNarrowScaleAVX(SB), NOSPLIT, $0-36
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	SHRQ         $3, CX
	VBROADCASTSD d+24(FP), Y0
	VBROADCASTSS s+32(FP), Y1
narrowloop:
	VMOVUPD     (SI), Y2
	VDIVPD      Y0, Y2, Y2
	VCVTPD2PSY  Y2, X2
	VMOVUPD     32(SI), Y3
	VDIVPD      Y0, Y3, Y3
	VCVTPD2PSY  Y3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VMULPS      Y1, Y2, Y2
	VMOVUPS     Y2, (DI)
	ADDQ        $64, SI
	ADDQ        $32, DI
	DECQ        CX
	JNZ         narrowloop
	VZEROUPPER
	RET
