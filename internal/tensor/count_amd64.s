//go:build amd64

#include "textflag.h"

// func nonzeroCountAVX(xs *float32, n uintptr) uintptr
//
// NonzeroCount's whole blocks: n (a positive multiple of eight) minus the
// number of words of xs[0:n] whose 32 bits are all zero. The comparison is
// on integers, so negative zero and NaN words count as nonzero, exactly as
// the Go loop's Float32bits test does.
//
//	BX  n minus the zero words seen so far
//	CX  blocks of eight left
TEXT ·nonzeroCountAVX(SB), NOSPLIT, $0-24
	MOVQ xs+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ CX, BX
	SHRQ $3, CX
	VPXOR Y0, Y0, Y0

loop:
	VPCMPEQD  (SI), Y0, Y1
	VMOVMSKPS Y1, AX
	POPCNTL   AX, AX
	SUBQ      AX, BX
	ADDQ      $32, SI
	DECQ      CX
	JNZ       loop

	VZEROUPPER
	MOVQ BX, ret+16(FP)
	RET
