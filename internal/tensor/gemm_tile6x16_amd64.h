// The parts the 6x16 AVX2+FMA micro-kernels share (gemmKernel6x16fma in
// gemm_kernel_amd64.s and its two indirect forms in gemm_indirect_amd64.s).
// The tile is Y4..Y15: row r is Y(4+2r) (cols 0-7) and Y(5+2r) (cols 8-15);
// Y0,Y1 hold the current 16 B values, Y2,Y3 the broadcast A values.

#define ZERO6x16 \
	VXORPS Y4, Y4, Y4; \
	VXORPS Y5, Y5, Y5; \
	VXORPS Y6, Y6, Y6; \
	VXORPS Y7, Y7, Y7; \
	VXORPS Y8, Y8, Y8; \
	VXORPS Y9, Y9, Y9; \
	VXORPS Y10, Y10, Y10; \
	VXORPS Y11, Y11, Y11; \
	VXORPS Y12, Y12, Y12; \
	VXORPS Y13, Y13, Y13; \
	VXORPS Y14, Y14, Y14; \
	VXORPS Y15, Y15, Y15

// PACKEDA6x16 is one depth step against a packed A panel at SI: six
// broadcasts (alternating registers, to break dependency chains) and twelve
// fused multiply-adds tile += a·b with B in Y0,Y1.
#define PACKEDA6x16 \
	VBROADCASTSS (SI), Y2; \
	VFMADD231PS  Y0, Y2, Y4; \
	VFMADD231PS  Y1, Y2, Y5; \
	VBROADCASTSS 4(SI), Y3; \
	VFMADD231PS  Y0, Y3, Y6; \
	VFMADD231PS  Y1, Y3, Y7; \
	VBROADCASTSS 8(SI), Y2; \
	VFMADD231PS  Y0, Y2, Y8; \
	VFMADD231PS  Y1, Y2, Y9; \
	VBROADCASTSS 12(SI), Y3; \
	VFMADD231PS  Y0, Y3, Y10; \
	VFMADD231PS  Y1, Y3, Y11; \
	VBROADCASTSS 16(SI), Y2; \
	VFMADD231PS  Y0, Y2, Y12; \
	VFMADD231PS  Y1, Y2, Y13; \
	VBROADCASTSS 20(SI), Y3; \
	VFMADD231PS  Y0, Y3, Y14; \
	VFMADD231PS  Y1, Y3, Y15; \
	ADDQ $24, SI

// STORE6x16 writes the tile to C at DX (row stride R8 bytes), first adding C
// to it when AX is non-zero: sum + C, the sum first. Clobbers R9, R10, Y0..Y3.
#define STORE6x16 \
	LEAQ  (DX)(R8*2), R9; \
	LEAQ  (R9)(R8*2), R10; \
	TESTQ AX, AX; \
	JZ    store; \
	VMOVUPS (DX), Y0; \
	VADDPS  Y0, Y4, Y4; \
	VMOVUPS 32(DX), Y1; \
	VADDPS  Y1, Y5, Y5; \
	VMOVUPS (DX)(R8*1), Y2; \
	VADDPS  Y2, Y6, Y6; \
	VMOVUPS 32(DX)(R8*1), Y3; \
	VADDPS  Y3, Y7, Y7; \
	VMOVUPS (R9), Y0; \
	VADDPS  Y0, Y8, Y8; \
	VMOVUPS 32(R9), Y1; \
	VADDPS  Y1, Y9, Y9; \
	VMOVUPS (R9)(R8*1), Y2; \
	VADDPS  Y2, Y10, Y10; \
	VMOVUPS 32(R9)(R8*1), Y3; \
	VADDPS  Y3, Y11, Y11; \
	VMOVUPS (R10), Y0; \
	VADDPS  Y0, Y12, Y12; \
	VMOVUPS 32(R10), Y1; \
	VADDPS  Y1, Y13, Y13; \
	VMOVUPS (R10)(R8*1), Y2; \
	VADDPS  Y2, Y14, Y14; \
	VMOVUPS 32(R10)(R8*1), Y3; \
	VADDPS  Y3, Y15, Y15; \
store: \
	VMOVUPS Y4, (DX); \
	VMOVUPS Y5, 32(DX); \
	VMOVUPS Y6, (DX)(R8*1); \
	VMOVUPS Y7, 32(DX)(R8*1); \
	VMOVUPS Y8, (R9); \
	VMOVUPS Y9, 32(R9); \
	VMOVUPS Y10, (R9)(R8*1); \
	VMOVUPS Y11, 32(R9)(R8*1); \
	VMOVUPS Y12, (R10); \
	VMOVUPS Y13, 32(R10); \
	VMOVUPS Y14, (R10)(R8*1); \
	VMOVUPS Y15, 32(R10)(R8*1); \
	VZEROUPPER
