//go:build amd64

// AVX2+FMA kernels behind ExpInto, SigmoidInto and TanhInto (act.go): four
// float64 lanes, each running the operations the standard library runs on
// one value, in the same order with the same roundings, so each lane holds
// the standard library's bits.
//
// exp is $GOROOT/src/math/exp_amd64.s on its FMA path (Shibata's SLEEF
// sequence): k = round(x·log2e) by CVTPD2DQ, r = x − k·ln2hi − k·ln2lo (two
// fused steps), r /= 16, the degree-8 Horner chain p (seven fused steps),
// y = r·p, three times y = y·(y+2), then (y+2)·y + 1 fused, times 2^k built
// in the exponent field. That path is only valid while 2^k is a normal
// number and x is finite; every kernel keeps its lanes inside [−708, 709]
// (k in [−1021, 1023]) and says below what happens to the rest.
//
// tanh is math.tanh, which is Go: unfused multiplies, adds and divides (the
// compiler fuses nothing on amd64), exp only on its middle branch.
//
// What would break the identity is a toolchain whose math.Exp or math.tanh
// does something else (or a run with GODEBUG=cpu.fma=off, where math.Exp
// takes its unfused path): actKernelsMatchStdlib in act_amd64.go checks at
// start-up and leaves the kernels off then.

#include "textflag.h"

// K4 lays one float64 constant out four times, once per lane.
#define K4(off, bits) \
	DATA actK<>+off(SB)/8, $bits; \
	DATA actK<>+off+8(SB)/8, $bits; \
	DATA actK<>+off+16(SB)/8, $bits; \
	DATA actK<>+off+24(SB)/8, $bits

K4(0, 0x3ff71547652b82fe)   // log2 e
K4(32, 0x3fe62e42fefa3000)  // ln 2, upper half
K4(64, 0x3d53de6af278ece6)  // ln 2, lower half
K4(96, 0x3fb0000000000000)  // 1/16
K4(128, 0x3efa01a01a01a01a) // 1/8!
K4(160, 0x3f2a01a01a01a01a) // 1/7!
K4(192, 0x3f56c16c16c16c17) // 1/6!
K4(224, 0x3f81111111111111) // 1/5!
K4(256, 0x3fa5555555555555) // 1/4!
K4(288, 0x3fc5555555555555) // 1/3!
K4(320, 0x3fe0000000000000) // 0.5
K4(352, 0x3ff0000000000000) // 1
K4(384, 0x4000000000000000) // 2
K4(416, 0xc086200000000000) // −708
K4(448, 0x4086280000000000) // 709
K4(480, 0x8000000000000000) // sign bit
K4(512, 0x7fffffffffffffff) // all but the sign bit
K4(544, 0x3fe4000000000000) // 0.625
K4(576, 0x404601e678fc457b) // 0.5·MAXLOG of math.tanh
K4(608, 0xbfeedc5baafd6f4b) // tanhP[0]
K4(640, 0xc058d26a0e26682d) // tanhP[1]
K4(672, 0xc0993ac030580563) // tanhP[2]
K4(704, 0x405c33f28a581b86) // tanhQ[0]
K4(736, 0x40a176fa0e5535fa) // tanhQ[1]
K4(768, 0x40b2ec102442040c) // tanhQ[2]
K4(800, 0x000003ff000003ff) // exponent bias, as four int32 (the upper half is unused)
GLOBL actK<>(SB), RODATA|NOPTR, $832

#define kLog2e actK<>+0(SB)
#define kLn2Hi actK<>+32(SB)
#define kLn2Lo actK<>+64(SB)
#define kSixteenth actK<>+96(SB)
#define kC8 actK<>+128(SB)
#define kC7 actK<>+160(SB)
#define kC6 actK<>+192(SB)
#define kC5 actK<>+224(SB)
#define kC4 actK<>+256(SB)
#define kC3 actK<>+288(SB)
#define kHalf actK<>+320(SB)
#define kOne actK<>+352(SB)
#define kTwo actK<>+384(SB)
#define kLo actK<>+416(SB)
#define kHi actK<>+448(SB)
#define kSign actK<>+480(SB)
#define kAbs actK<>+512(SB)
#define kRational actK<>+544(SB)
#define kSaturated actK<>+576(SB)
#define kP0 actK<>+608(SB)
#define kP1 actK<>+640(SB)
#define kP2 actK<>+672(SB)
#define kQ0 actK<>+704(SB)
#define kQ1 actK<>+736(SB)
#define kQ2 actK<>+768(SB)
#define kBias actK<>+800(SB)

// Lane masks of the last, partial vector: a w-lane mask starts w lanes
// before the zeros (8 bytes a lane for float64, 4 for float32).
DATA actMask<>+0(SB)/8, $0xffffffffffffffff
DATA actMask<>+8(SB)/8, $0xffffffffffffffff
DATA actMask<>+16(SB)/8, $0xffffffffffffffff
DATA actMask<>+24(SB)/8, $0xffffffffffffffff
DATA actMask<>+32(SB)/8, $0
DATA actMask<>+40(SB)/8, $0
DATA actMask<>+48(SB)/8, $0
DATA actMask<>+56(SB)/8, $0
GLOBL actMask<>(SB), RODATA|NOPTR, $64

// EXP replaces the four arguments in Y0, each inside [−708, 709], by their
// exponentials. It uses Y1 and Y2.
#define EXP \
	VMULPD       kLog2e, Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD kLn2Hi, Y1, Y0; \
	VFNMADD231PD kLn2Lo, Y1, Y0; \
	VMULPD       kSixteenth, Y0, Y0; \
	VMOVUPD      kC8, Y1; \
	VFMADD213PD  kC7, Y0, Y1; \
	VFMADD213PD  kC6, Y0, Y1; \
	VFMADD213PD  kC5, Y0, Y1; \
	VFMADD213PD  kC4, Y0, Y1; \
	VFMADD213PD  kC3, Y0, Y1; \
	VFMADD213PD  kHalf, Y0, Y1; \
	VFMADD213PD  kOne, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       kTwo, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       kTwo, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       kTwo, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       kTwo, Y0, Y1; \
	VFMADD213PD  kOne, Y1, Y0; \
	VPADDD       kBias, X2, X2; \
	VPMOVZXDQ    X2, Y1; \
	VPSLLQ       $52, Y1, Y1; \
	VMULPD       Y1, Y0, Y0

// func expIntoFMA(dst, src *float64, n uintptr) (done uintptr)
//
// dst[i] = math.Exp(src[i]) for i < done. It stops before the first vector
// holding an argument outside [−708, 709] or a NaN, where math.Exp leaves
// the sequence above; the caller owns that vector.
TEXT ·expIntoFMA(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ DX, DX

exploop:
	MOVQ CX, AX
	SUBQ DX, AX
	JZ   expdone
	CMPQ AX, $4
	JLT  exptail
	VMOVUPD (SI)(DX*8), Y0
	VCMPPD  $0x1d, kLo, Y0, Y1 // x >= −708, false for a NaN
	VCMPPD  $0x12, kHi, Y0, Y2 // x <= 709
	VANDPD  Y2, Y1, Y1
	VMOVMSKPD Y1, AX
	CMPL AX, $15
	JNE  expdone
	EXP
	VMOVUPD Y0, (DI)(DX*8)
	ADDQ $4, DX
	JMP  exploop

exptail:
	// Lanes past the end load as zero, which is in range.
	LEAQ actMask<>+32(SB), BX
	SHLQ $3, AX
	SUBQ AX, BX
	VMOVDQU (BX), Y3
	VMASKMOVPD (SI)(DX*8), Y3, Y0
	VCMPPD  $0x1d, kLo, Y0, Y1
	VCMPPD  $0x12, kHi, Y0, Y2
	VANDPD  Y2, Y1, Y1
	VMOVMSKPD Y1, AX
	CMPL AX, $15
	JNE  expdone
	EXP
	VMASKMOVPD Y0, Y3, (DI)(DX*8)
	MOVQ CX, DX

expdone:
	MOVQ DX, done+24(FP)
	VZEROUPPER
	RET

// SIGMOID turns the four float32 widened into Y0 into the four float32
// float32(1/(1+math.Exp(−x))) in X0. It uses Y1 to Y3.
//
// −x is clamped into [−708, 709] instead of leaving the sequence: beyond
// 709 math.Exp returns at least e^709, so 1/(1+e) is below 2^−1023 and
// rounds to float32 +0 either way; below −708 it returns at most e^−708,
// 1+e is 1 in float64 either way. A NaN goes round the sequence as
// math.Exp returns it, sign flipped by the negation, payload kept.
#define SIGMOID \
	VXORPD    kSign, Y0, Y3; \
	VMAXPD    kLo, Y3, Y0; \
	VMINPD    kHi, Y0, Y0; \
	EXP; \
	VCMPPD    $3, Y3, Y3, Y1; \
	VBLENDVPD Y1, Y3, Y0, Y0; \
	VADDPD    kOne, Y0, Y0; \
	VMOVUPD   kOne, Y1; \
	VDIVPD    Y0, Y1, Y0; \
	VCVTPD2PSY Y0, X0

// func sigmoidIntoFMA(dst, src *float32, n uintptr)
TEXT ·sigmoidIntoFMA(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

sigloop:
	CMPQ CX, $4
	JLT  sigtail
	VCVTPS2PD (SI), Y0
	SIGMOID
	VMOVUPS X0, (DI)
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $4, CX
	JMP  sigloop

sigtail:
	TESTQ CX, CX
	JZ   sigdone
	LEAQ actMask<>+32(SB), BX
	SHLQ $2, CX
	SUBQ CX, BX
	VMOVDQU (BX), X4
	VMASKMOVPS (SI), X4, X0
	VCVTPS2PD X0, Y0
	SIGMOID
	VMASKMOVPS X0, X4, (DI)

sigdone:
	VZEROUPPER
	RET

// TANH turns the four float32 widened into Y0 into the four float32
// float32(math.Tanh(x)) in X0. It uses Y1 to Y7.
//
// All three branches of math.tanh are computed for every lane and blended
// by its own conditions, then its x == 0 return (the rational form would
// turn −0 into +0). A NaN fails both comparisons, takes the rational form
// and comes out as itself, as in math.tanh. The middle branch's argument
// 2|x| is at most 88.03 on the lanes that keep its result; it is capped at
// 709 for the others, whose result is dropped.
#define TANH \
	VMOVAPD   Y0, Y3; \
	VANDPD    kAbs, Y3, Y4; \
	VANDPD    kSign, Y3, Y5; \
	VADDPD    Y4, Y4, Y0; \
	VMINPD    kHi, Y0, Y0; \
	EXP; \
	VADDPD    kOne, Y0, Y0; \
	VMOVUPD   kTwo, Y1; \
	VDIVPD    Y0, Y1, Y0; \
	VMOVUPD   kOne, Y1; \
	VSUBPD    Y0, Y1, Y0; \
	VXORPD    Y5, Y0, Y0; \
	VMULPD    Y3, Y3, Y1; \
	VMOVUPD   kP0, Y2; \
	VMULPD    Y1, Y2, Y2; \
	VADDPD    kP1, Y2, Y2; \
	VMULPD    Y1, Y2, Y2; \
	VADDPD    kP2, Y2, Y2; \
	VADDPD    kQ0, Y1, Y6; \
	VMULPD    Y1, Y6, Y6; \
	VADDPD    kQ1, Y6, Y6; \
	VMULPD    Y1, Y6, Y6; \
	VADDPD    kQ2, Y6, Y6; \
	VMULPD    Y1, Y3, Y7; \
	VMULPD    Y2, Y7, Y7; \
	VDIVPD    Y6, Y7, Y7; \
	VADDPD    Y7, Y3, Y7; \
	VCMPPD    $0x1d, kRational, Y4, Y1; \
	VBLENDVPD Y1, Y0, Y7, Y7; \
	VCMPPD    $0x1e, kSaturated, Y4, Y1; \
	VORPD     kOne, Y5, Y0; \
	VBLENDVPD Y1, Y0, Y7, Y7; \
	VXORPD    Y1, Y1, Y1; \
	VCMPPD    $0, Y1, Y3, Y1; \
	VBLENDVPD Y1, Y3, Y7, Y7; \
	VCVTPD2PSY Y7, X0

// func tanhIntoFMA(dst, src *float32, n uintptr)
TEXT ·tanhIntoFMA(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

tanhloop:
	CMPQ CX, $4
	JLT  tanhtail
	VCVTPS2PD (SI), Y0
	TANH
	VMOVUPS X0, (DI)
	ADDQ $16, SI
	ADDQ $16, DI
	SUBQ $4, CX
	JMP  tanhloop

tanhtail:
	TESTQ CX, CX
	JZ   tanhdone
	LEAQ actMask<>+32(SB), BX
	SHLQ $2, CX
	SUBQ CX, BX
	VMOVDQU (BX), X8
	VMASKMOVPS (SI), X8, X0
	VCVTPS2PD X0, Y0
	TANH
	VMASKMOVPS X0, X8, (DI)

tanhdone:
	VZEROUPPER
	RET
