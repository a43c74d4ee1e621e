//go:build amd64

// amd64 kernels of the small-product path (gemmDirect in gemm.go): AVX,
// vectorised across the columns of C only, multiply and add rounded
// separately (VMULPS then VADDPS, never FMA), depth ascending. Every element
// of C therefore goes through exactly the operations the scalar loops of
// gemmDirectScalar give it, in the same order; the kernels only run eight or
// sixteen of those independent chains side by side and four rows at a time.
//
// Both take
//
//	c, a, b           first elements of C, A and B
//	m, k, n           the product's dimensions
//	aRow, aDepth      byte strides of A between rows and along the depth
//	ldb, ldc          byte strides between rows of B ([k,n]) and of C
//	flags             bit 0: start each sum from C instead of +0
//	                  bit 1: add C to each finished sum before storing it
//
// and differ only in which operand of each instruction comes first, which
// is what decides the payload when two NaNs meet (x86 keeps the first):
// each kernel repeats the order the compiler gives the scalar loop it
// stands in for (in a plain build; see oracleDiff in direct_test.go), so
// results match bit for bit even then.

#include "textflag.h"

// Lane masks of the narrow tile: a w-lane mask is the 32 bytes that start
// 4·w bytes before the zeros.
DATA directMask<>+0(SB)/8, $0xffffffffffffffff
DATA directMask<>+8(SB)/8, $0xffffffffffffffff
DATA directMask<>+16(SB)/8, $0xffffffffffffffff
DATA directMask<>+24(SB)/8, $0xffffffffffffffff
DATA directMask<>+32(SB)/8, $0
DATA directMask<>+40(SB)/8, $0
DATA directMask<>+48(SB)/8, $0
DATA directMask<>+56(SB)/8, $0
GLOBL directMask<>(SB), RODATA|NOPTR, $64

// func gemmDirectChainAVX(c, a, b *float32, m, k, n, aRow, aDepth, ldb, ldc uintptr, flags uint64)
//
// The A·B and Aᵀ·B loops: c = b·a + c, the product first in the add.
TEXT ·gemmDirectChainAVX(SB), NOSPLIT, $8-88
#define PROD(b) VMULPS Y14, b, Y15
#define SUM(acc) VADDPS acc, Y15, acc
#include "gemm_direct_amd64.h"
#undef PROD
#undef SUM

// func gemmDirectDotAVX(c, a, b *float32, m, k, n, aRow, aDepth, ldb, ldc uintptr, flags uint64)
//
// The A·Bᵀ and Aᵀ·Bᵀ loops: s = s + a·b, the running sum first in the add.
TEXT ·gemmDirectDotAVX(SB), NOSPLIT, $8-88
#define PROD(b) VMULPS b, Y14, Y15
#define SUM(acc) VADDPS Y15, acc, acc
#include "gemm_direct_amd64.h"
#undef PROD
#undef SUM
