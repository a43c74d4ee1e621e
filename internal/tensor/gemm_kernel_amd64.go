//go:build amd64

package tensor

// amd64 micro-kernel tiers. The non-fused machines (no AVX2/FMA, or an OS
// that does not save YMM state) get the original SSE 4×8 kernel; fused
// machines get a 4×8 XMM-FMA variant under the same "sse" tier name plus the
// wide 6×16 AVX2+FMA tier. Both groups are internally bit-identical across
// their tiers (see kernel.go). Every assembly tier of a machine with AVX
// also gets the small-product kernels, which are unfused on both groups.
func archKernels() []*gemmKernel {
	sse := &gemmKernel{name: "sse", mr: 4, nr: 8, mc: 128, nc: 512, asm: gemmKernel4x8}
	if cpuAVX {
		sse.directChain, sse.directDot = gemmDirectChainAVX, gemmDirectDotAVX
	}
	if !cpuFused {
		return []*gemmKernel{sse}
	}
	sse.asm = gemmKernel4x8fma
	sse.fused = true
	// mc is a multiple of mr (the packed A panel must fit mc·kc exactly);
	// 120·256·4 B ≈ 120 KiB keeps the A panel L2-resident like the 4×8
	// tier's 128. nc stays 512 (a multiple of 16).
	avx2 := &gemmKernel{name: "avx2", mr: 6, nr: 16, mc: 120, nc: 512, asm: gemmKernel6x16fma, fused: true,
		directChain: gemmDirectChainAVX, directDot: gemmDirectDotAVX,
		indirectB: gemmKernel6x16fmaIndB, indirectA: gemmKernel6x16fmaIndA, addRuns: addRunsAVX}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<23) != 0 { // POPCNT
		avx2.nonzeroCount = nonzeroCountAVX
	}
	avx2.transpose8x8 = transpose8x8AVX
	avx2.relu, avx2.reluGrad = reluAVX, reluGradAVX
	avx2.maxPool2x2, avx2.maxPool2x2Grad = maxPool2x2AVX, maxPool2x2GradAVX
	avx2.addBias, avx2.addBiasGrad = addBiasAVX, addBiasGradAVX
	avx2.sgdStep = sgdStepAVX
	avx2.addTo, avx2.subInto, avx2.addRowSums = addToAVX, subIntoAVX, addRowSumsAVX
	avx2.lstmCell, avx2.lstmHidden, avx2.lstmGateGrads = lstmCellAVX, lstmHiddenAVX, lstmGateGradsAVX
	avx2.clip, avx2.argMax = clipAVX, argMaxAVX
	avx2.subWiden, avx2.divNarrowScale = subWidenAVX, divNarrowScaleAVX
	if actKernelsMatchStdlib() {
		for _, k := range []*gemmKernel{sse, avx2} {
			k.expInto, k.sigmoidInto, k.tanhInto = expIntoFMA, sigmoidIntoFMA, tanhIntoFMA
		}
	}
	return []*gemmKernel{sse, avx2}
}

// gemmKernel4x8 computes the full 4×8 micro-tile update
//
//	C[0:4, 0:8] (+)= Aᵖ·Bᵖ
//
// from packed panels: ap holds kb groups of 4 A values (one per C row), bp
// holds kb groups of 8 B values (one per C column). ldcBytes is the C row
// stride in bytes. acc selects accumulate (1) or overwrite (0).
//
// The 32 partial sums live in SSE registers X0–X7 for the whole K loop;
// see gemm_kernel_amd64.s. Multiply-then-add semantics (non-fused machines).
//
//go:noescape
func gemmKernel4x8(c *float32, ldcBytes uintptr, ap, bp *float32, kb, acc uint64)

// gemmKernel4x8fma is gemmKernel4x8 with VFMADD231PS accumulation: the same
// tile geometry, but each step rounds once. It backs the "sse" tier on fused
// machines so forcing that tier still matches the avx2 tier bit-for-bit.
//
//go:noescape
func gemmKernel4x8fma(c *float32, ldcBytes uintptr, ap, bp *float32, kb, acc uint64)

// gemmKernel6x16fma computes the full 6×16 micro-tile update with AVX2+FMA:
// ap holds kb groups of 6 A values, bp holds kb groups of 16 B values. The
// 96 partial sums live in YMM4–YMM15 for the whole K loop; each step is one
// 16-wide B load pair, six broadcasts and twelve VFMADD231PS, which keeps
// the FMA ports saturated (12 FMAs per 8 load-port uops).
//
//go:noescape
func gemmKernel6x16fma(c *float32, ldcBytes uintptr, ap, bp *float32, kb, acc uint64)

// gemmKernel6x16fmaIndB and gemmKernel6x16fmaIndA are gemmKernel6x16fma with
// one operand read out of a padded convolution input through a table of
// offsets instead of out of a packed panel, and addRunsAVX adds a
// column-gradient row into a padded input gradient through one (contracts in
// gemm_indirect_amd64.s; the driver is indirect.go).
//
//go:noescape
func gemmKernel6x16fmaIndB(c *float32, ldcBytes uintptr, ap, x0, x1 *float32, taps *int, kb, acc uint64)

//go:noescape
func gemmKernel6x16fmaIndA(c *float32, ldcBytes uintptr, x *float32, taps, pos *int, bp *float32, kb, acc uint64)

//go:noescape
func addRunsAVX(dst, src *float32, pos *int, runs uint64)

// nonzeroCountAVX counts the nonzero words of xs[0:n], n a positive multiple
// of eight, a YMM register at a time: VPCMPEQD against zero, VMOVMSKPS, and
// POPCNT of the zero lanes (contract in count_amd64.s).
//
//go:noescape
func nonzeroCountAVX(xs *float32, n uintptr) uintptr

// transpose8x8AVX moves blocks of eight depths of eight runs into eight
// columns of a panel with register shuffles: packTransposed's whole blocks
// (contract in transpose_amd64.s).
//
//go:noescape
func transpose8x8AVX(dst *float32, ldBytes uintptr, r0, r1, r2, r3, r4, r5, r6, r7 *float32, blocks uintptr)

// gemmDirectChainAVX and gemmDirectDotAVX are the small-product kernels
// behind gemmDirect (contract in gemm_direct_amd64.s): the first stands in
// for the scalar A·B and Aᵀ·B loops, the second for A·Bᵀ and Aᵀ·Bᵀ over a
// transposed copy of B.
//
//go:noescape
func gemmDirectChainAVX(c, a, b *float32, m, k, n, aRow, aDepth, ldb, ldc uintptr, flags uint64)

//go:noescape
func gemmDirectDotAVX(c, a, b *float32, m, k, n, aRow, aDepth, ldb, ldc uintptr, flags uint64)
