// Body of the two small-product kernels in gemm_direct_amd64.s, included once
// per TEXT with PROD and SUM defined for that kernel's operand order. See the
// .s file for the contract.
//
// Register plan:
//
//	R8..R11           A row pointers of the current 4-row tile
//	BX, DI, R12, R13  C row pointers of the same rows
//	DX                byte offset of the current column tile within a C/B row
//	SI                B pointer: row p of the current column tile
//	AX                byte offset of depth p within an A row
//	CX                depth countdown (scratch between tiles)
//
//	Y0..Y7   the tile's running sums: row r is Y(2r) (cols 0-7), Y(2r+1)
//	         (cols 8-15); the narrow tile uses Y0..Y3, one per row
//	Y12,Y13  current B values (narrow tile: Y12 B values, Y13 lane mask)
//	Y14      broadcast A value
//	Y15      product
//
// A tile of fewer than 4 rows points its spare row registers at the last
// valid row: that row is then computed and stored more than once, always
// from the same inputs to the same value, so every C tile takes one code
// path whatever m is. (All loads of C precede all stores of a tile.)

	MOVQ c+0(FP), BX
	MOVQ a+8(FP), R8
	MOVQ m+24(FP), CX
	MOVQ CX, mleft-8(SP)

rowtile:
	// CX = rows left, at least 1.
	MOVQ aRow+48(FP), AX
	MOVQ ldc+72(FP), SI
	LEAQ (R8)(AX*1), R9
	LEAQ (BX)(SI*1), DI
	CMPQ CX, $2
	CMOVQLT R8, R9
	CMOVQLT BX, DI
	LEAQ (R9)(AX*1), R10
	LEAQ (DI)(SI*1), R12
	CMPQ CX, $3
	CMOVQLT R9, R10
	CMOVQLT DI, R12
	LEAQ (R10)(AX*1), R11
	LEAQ (R12)(SI*1), R13
	CMPQ CX, $4
	CMOVQLT R10, R11
	CMOVQLT R12, R13
	XORQ DX, DX

wide:
	// 16 columns at a time while at least 16 are left.
	MOVQ n+40(FP), CX
	SHLQ $2, CX
	SUBQ DX, CX
	CMPQ CX, $64
	JLT  narrow
	MOVQ b+16(FP), SI
	ADDQ DX, SI
	TESTQ $1, flags+80(FP)
	JZ   widezero
	VMOVUPS (BX)(DX*1), Y0
	VMOVUPS 32(BX)(DX*1), Y1
	VMOVUPS (DI)(DX*1), Y2
	VMOVUPS 32(DI)(DX*1), Y3
	VMOVUPS (R12)(DX*1), Y4
	VMOVUPS 32(R12)(DX*1), Y5
	VMOVUPS (R13)(DX*1), Y6
	VMOVUPS 32(R13)(DX*1), Y7
	JMP  widedepth

widezero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

widedepth:
	XORQ AX, AX
	MOVQ k+32(FP), CX

wideloop:
	VMOVUPS (SI), Y12
	VMOVUPS 32(SI), Y13
	VBROADCASTSS (R8)(AX*1), Y14
	PROD(Y12)
	SUM(Y0)
	PROD(Y13)
	SUM(Y1)
	VBROADCASTSS (R9)(AX*1), Y14
	PROD(Y12)
	SUM(Y2)
	PROD(Y13)
	SUM(Y3)
	VBROADCASTSS (R10)(AX*1), Y14
	PROD(Y12)
	SUM(Y4)
	PROD(Y13)
	SUM(Y5)
	VBROADCASTSS (R11)(AX*1), Y14
	PROD(Y12)
	SUM(Y6)
	PROD(Y13)
	SUM(Y7)
	ADDQ aDepth+56(FP), AX
	ADDQ ldb+64(FP), SI
	DECQ CX
	JNZ  wideloop

	TESTQ $2, flags+80(FP)
	JZ   widestore
	VADDPS (BX)(DX*1), Y0, Y0
	VADDPS 32(BX)(DX*1), Y1, Y1
	VADDPS (DI)(DX*1), Y2, Y2
	VADDPS 32(DI)(DX*1), Y3, Y3
	VADDPS (R12)(DX*1), Y4, Y4
	VADDPS 32(R12)(DX*1), Y5, Y5
	VADDPS (R13)(DX*1), Y6, Y6
	VADDPS 32(R13)(DX*1), Y7, Y7

widestore:
	VMOVUPS Y0, (BX)(DX*1)
	VMOVUPS Y1, 32(BX)(DX*1)
	VMOVUPS Y2, (DI)(DX*1)
	VMOVUPS Y3, 32(DI)(DX*1)
	VMOVUPS Y4, (R12)(DX*1)
	VMOVUPS Y5, 32(R12)(DX*1)
	VMOVUPS Y6, (R13)(DX*1)
	VMOVUPS Y7, 32(R13)(DX*1)
	ADDQ $64, DX
	JMP  wide

narrow:
	// CX = bytes of the row still to do, under 64: up to two tiles of at
	// most 8 columns, all loads and stores under a lane mask.
	CMPQ CX, $0
	JLE  nextrows
	CMPQ CX, $32
	JLE  narrowmask
	MOVQ $32, CX

narrowmask:
	// The first CX/4 lanes: 32 bytes of the mask table starting CX bytes
	// before its run of zeros.
	LEAQ directMask<>+32(SB), SI
	SUBQ CX, SI
	VMOVUPS (SI), Y13
	MOVQ b+16(FP), SI
	ADDQ DX, SI
	TESTQ $1, flags+80(FP)
	JZ   narrowzero
	VMASKMOVPS (BX)(DX*1), Y13, Y0
	VMASKMOVPS (DI)(DX*1), Y13, Y1
	VMASKMOVPS (R12)(DX*1), Y13, Y2
	VMASKMOVPS (R13)(DX*1), Y13, Y3
	JMP  narrowdepth

narrowzero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

narrowdepth:
	XORQ AX, AX
	MOVQ k+32(FP), CX

narrowloop:
	VMASKMOVPS (SI), Y13, Y12
	VBROADCASTSS (R8)(AX*1), Y14
	PROD(Y12)
	SUM(Y0)
	VBROADCASTSS (R9)(AX*1), Y14
	PROD(Y12)
	SUM(Y1)
	VBROADCASTSS (R10)(AX*1), Y14
	PROD(Y12)
	SUM(Y2)
	VBROADCASTSS (R11)(AX*1), Y14
	PROD(Y12)
	SUM(Y3)
	ADDQ aDepth+56(FP), AX
	ADDQ ldb+64(FP), SI
	DECQ CX
	JNZ  narrowloop

	TESTQ $2, flags+80(FP)
	JZ   narrowstore
	VMASKMOVPS (BX)(DX*1), Y13, Y4
	VMASKMOVPS (DI)(DX*1), Y13, Y5
	VMASKMOVPS (R12)(DX*1), Y13, Y6
	VMASKMOVPS (R13)(DX*1), Y13, Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

narrowstore:
	VMASKMOVPS Y0, Y13, (BX)(DX*1)
	VMASKMOVPS Y1, Y13, (DI)(DX*1)
	VMASKMOVPS Y2, Y13, (R12)(DX*1)
	VMASKMOVPS Y3, Y13, (R13)(DX*1)
	ADDQ $32, DX
	MOVQ n+40(FP), CX
	SHLQ $2, CX
	SUBQ DX, CX
	JMP  narrow

nextrows:
	MOVQ mleft-8(SP), CX
	SUBQ $4, CX
	JLE  done
	MOVQ CX, mleft-8(SP)
	MOVQ aRow+48(FP), AX
	LEAQ (R8)(AX*4), R8
	MOVQ ldc+72(FP), SI
	LEAQ (BX)(SI*4), BX
	JMP  rowtile

done:
	VZEROUPPER
	RET
