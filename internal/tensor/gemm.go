package tensor

import (
	"fmt"
	"runtime"
)

// This file is the matrix-multiplication engine behind MatMul, MatMulTA,
// MatMulTB and MatVec. All four variants funnel into one cache-blocked GEMM
// (gemm below) that packs panels of A and B into contiguous tile buffers and
// runs a register-blocked micro-kernel over them, so the transposed variants
// pay no stride penalty: transposition is absorbed by the packing routines.
//
// The micro-kernel and its blocking geometry come from the tier registry in
// kernel.go (selected by a CPUID probe at start-up, FEDMP_KERNEL overrides):
//
//	mr×nr         micro-tile held in SIMD registers while streaming the K
//	              dimension — 4×8 for the SSE/generic tiers, 6×16 for the
//	              AVX2+FMA tier; edge tiles are staged through the same
//	              kernel into a scratch tile
//	kc    = 256   depth of a packed panel pair, shared by every tier (the K
//	              chunking decides rounding boundaries, so it must not vary
//	              per kernel — see kernel.go)
//	mc            rows of A packed per panel (mc·kc ≈ 120–128 KiB, L2)
//	nc            columns of B packed per panel (kc·nc ≈ 512 KiB, outer level)
//
// Products below smallGEMMFLOPs skip packing entirely and take the direct
// path (gemmDirect): unfused multiply-then-add, one chain per element of C
// over the whole depth — scalar loops, or on an AVX machine kernels that run
// those same chains eight or sixteen columns at a time. Products at or
// above parallelMinFLOPs are row-sharded across a persistent worker pool when
// GOMAXPROCS permits (see parallel.go). Callers that multiply one operand many
// times (a convolution's kernel matrix, once per sample) pack it once through
// PackedA/PackedB and GEMMPacked (see packed.go).
//
// The kernels are deliberately branch-free in the inner loops: the seed
// implementation skipped zero A elements per-element, which pessimised dense
// (non-pruned) models on every step. Sparsity-aware multiplication now lives
// in sparse.go and is opt-in for models carrying zero-masked weights.
//
// C must not alias A or B in any *Into variant: the engine writes C while
// panels of the operands are still unread.

const (
	// Geometry of the generic (portable Go) tier; the assembly tiers carry
	// their own mr/nr/mc/nc in the kernel registry. kcGEMM is shared by
	// every tier — see kernel.go for why it must not vary.
	mrGEMM = 4
	nrGEMM = 8
	kcGEMM = 256
	mcGEMM = 128
	ncGEMM = 512

	// smallGEMMFLOPs is the 2·m·k·n product below which the direct
	// (non-packing) path runs. It is a rounding boundary, not a tuning
	// knob: the two sides sum a product differently (the direct path is
	// unfused everywhere and sums the whole depth in one chain; the blocked
	// path is fused on FMA machines and adds kc-deep chunk sums), so
	// moving it would move the bits of every product that changes sides —
	// and with them every pinned result.
	smallGEMMFLOPs = 2 * 32 * 32 * 32
)

// MatMul computes C = A·B for A of shape [m,k] and B of shape [k,n],
// returning a new [m,n] tensor.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul("MatMul", a, b)
	c := New(m, n)
	gemm(c.Data, a.Data, b.Data, false, false, m, k, n, false)
	return c
}

// MatMulInto computes C = A·B (or C += A·B when accumulate is true) into an
// existing [m,n] tensor, avoiding the allocation in hot training loops.
func MatMulInto(c, a, b *Tensor, accumulate bool) {
	m, k, n := checkMatMul("MatMulInto", a, b)
	checkOut("MatMulInto", c, m, n)
	gemm(c.Data, a.Data, b.Data, false, false, m, k, n, accumulate)
}

// MatMulTA computes C = Aᵀ·B for A of shape [k,m] and B of shape [k,n],
// returning [m,n]. Used for weight gradients (dW = Xᵀ·dY).
func MatMulTA(a, b *Tensor) *Tensor {
	m, k, n := checkMatMulTA("MatMulTA", a, b)
	c := New(m, n)
	gemm(c.Data, a.Data, b.Data, true, false, m, k, n, false)
	return c
}

// MatMulTAInto computes C = Aᵀ·B (or C += Aᵀ·B when accumulate is true) into
// an existing [m,n] tensor. The accumulate form writes weight gradients
// directly into their Grad tensors without a temporary.
func MatMulTAInto(c, a, b *Tensor, accumulate bool) {
	m, k, n := checkMatMulTA("MatMulTAInto", a, b)
	checkOut("MatMulTAInto", c, m, n)
	gemm(c.Data, a.Data, b.Data, true, false, m, k, n, accumulate)
}

// MatMulTB computes C = A·Bᵀ for A of shape [m,k] and B of shape [n,k],
// returning [m,n]. Used for input gradients (dX = dY·Wᵀ when W is [out,in]).
func MatMulTB(a, b *Tensor) *Tensor {
	m, k, n := checkMatMulTB("MatMulTB", a, b)
	c := New(m, n)
	gemm(c.Data, a.Data, b.Data, false, true, m, k, n, false)
	return c
}

// MatMulTBInto computes C = A·Bᵀ (or C += A·Bᵀ when accumulate is true) into
// an existing [m,n] tensor.
func MatMulTBInto(c, a, b *Tensor, accumulate bool) {
	m, k, n := checkMatMulTB("MatMulTBInto", a, b)
	checkOut("MatMulTBInto", c, m, n)
	gemm(c.Data, a.Data, b.Data, false, true, m, k, n, accumulate)
}

func checkMatMul(op string, a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 operands, got %v and %v", op, a.Shape, b.Shape))
	}
	if a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: %s inner dimensions differ: %v vs %v", op, a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], b.Shape[1]
}

func checkMatMulTA(op string, a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 operands, got %v and %v", op, a.Shape, b.Shape))
	}
	if a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: %s leading dimensions differ: %v vs %v", op, a.Shape, b.Shape))
	}
	return a.Shape[1], a.Shape[0], b.Shape[1]
}

func checkMatMulTB(op string, a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 operands, got %v and %v", op, a.Shape, b.Shape))
	}
	if a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: %s trailing dimensions differ: %v vs %v", op, a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], b.Shape[0]
}

func checkOut(op string, c *Tensor, m, n int) {
	if len(c.Shape) != 2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s output shape %v, want [%d %d]", op, c.Shape, m, n))
	}
}

// gemm computes C = A·B (or C += A·B when accumulate is set) over logical
// operands
//
//	A(i,p) = aT ? a[p*m+i] : a[i*k+p]   (i < m, p < k)
//	B(p,j) = bT ? b[j*k+p] : b[p*n+j]   (j < n)
//
// writing the row-major m×n result into c.
func gemm(c, a, b []float32, aT, bT bool, m, k, n int, accumulate bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accumulate {
			clear(c[:m*n])
		}
		return
	}
	flops := 2 * m * k * n
	if flops < smallGEMMFLOPs {
		gemmDirect(c, a, b, aT, bT, m, k, n, accumulate)
		return
	}
	// Snapshot the active kernel once: a concurrent ForceKernel (tests only)
	// must not switch geometry between the shards of one call.
	kern := activeKernel.Load()
	if flops >= parallelMinFLOPs && m >= 2*parallelMinRows && runtime.GOMAXPROCS(0) > 1 {
		gemmParallel.run(m, func(lo, hi int) {
			gemmBlocked(kern, c, a, b, aT, bT, m, k, n, lo, hi, accumulate)
		})
		return
	}
	gemmBlocked(kern, c, a, b, aT, bT, m, k, n, 0, m, accumulate)
}

// storageStrides returns the row strides of contiguous operands: A is stored
// [k,m] when aT and [m,k] otherwise, B [n,k] when bT and [k,n] otherwise.
func storageStrides(aT, bT bool, m, k, n int) (lda, ldb int) {
	lda, ldb = k, n
	if aT {
		lda = m
	}
	if bT {
		ldb = k
	}
	return lda, ldb
}

// gemmBlocked runs the packed blocked kernel over C rows [rlo, rhi). Shards
// of a parallel dispatch call it with disjoint row ranges; each call packs
// its own panels from the shared read-only operands, so shards never share
// mutable state.
func gemmBlocked(kern *gemmKernel, c, a, b []float32, aT, bT bool, m, k, n, rlo, rhi int, accumulate bool) {
	mr, nr := kern.mr, kern.nr
	nc := kern.nc
	if nc > n {
		nc = roundUp(n, nr)
	}
	bbuf := Scratch.Get(kcGEMM * nc)      // pool miss allocates once; steady state reuses
	abuf := Scratch.Get(kern.mc * kcGEMM) // pool miss allocates once; steady state reuses
	defer Scratch.Put(abuf)
	defer Scratch.Put(bbuf)
	// Edge tiles are computed full-size (panels are zero-padded) into a
	// pooled scratch tile and merged; it needs no clearing because the
	// kernel overwrites the mr·nr region it uses before mergeTile reads it.
	// (Pooled rather than a stack array: its address crosses the indirect
	// kern.asm call, which would force a heap allocation per GEMM call.)
	var edge []float32
	if kern.asm != nil {
		ebuf := Scratch.Get(mrMax * nrMax) // pool miss allocates once; steady state reuses
		defer Scratch.Put(ebuf)
		edge = ebuf.Data
	}

	lda, ldb := storageStrides(aT, bT, m, k, n)
	for jc := 0; jc < n; jc += nc {
		nb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kcGEMM {
			kb := min(kcGEMM, k-pc)
			packB(bbuf.Data, b, bT, ldb, pc, kb, jc, nb, nr)
			acc := accumulate || pc > 0
			for ic := rlo; ic < rhi; ic += kern.mc {
				mb := min(kern.mc, rhi-ic)
				packA(abuf.Data, a, aT, lda, ic, mb, pc, kb, mr)
				gemmMacro(kern, c[ic*n+jc:], n, abuf.Data, bbuf.Data, mb, nb, kb, acc, edge)
			}
		}
	}
}

// gemmMacro multiplies one packed A block (mb rows in panels of mr) by one
// packed B block (nb columns in panels of nr) over the shared depth kb into
// the mb×nb block of C starting at c (row stride ldc). Every C element gets
// exactly one micro-kernel sum over p = 0..kb−1 in ascending order, written
// or added once, whatever mr and nr are — which is why panels may be packed
// ahead of time (packed.go) without moving a bit.
func gemmMacro(kern *gemmKernel, c []float32, ldc int, ap, bp []float32, mb, nb, kb int, acc bool, edge []float32) {
	mr, nr := kern.mr, kern.nr
	for jr := 0; jr < nb; jr += nr {
		bpan := bp[(jr/nr)*kb*nr:]
		jn := min(nr, nb-jr)
		for ir := 0; ir < mb; ir += mr {
			apan := ap[(ir/mr)*kb*mr:]
			im := min(mr, mb-ir)
			cc := c[ir*ldc+jr:]
			switch {
			case kern.asm == nil:
				if kern.fused {
					microTileFMA(cc, ldc, apan, bpan, kb, acc, im, jn)
				} else {
					microTileGo(cc, ldc, apan, bpan, kb, acc, im, jn)
				}
			case im == mr && jn == nr:
				kern.asm(&cc[0], uintptr(ldc*4), &apan[0], &bpan[0], uint64(kb), boolToUint64(acc))
			default:
				kern.asm(&edge[0], uintptr(nr*4), &apan[0], &bpan[0], uint64(kb), 0)
				mergeTile(cc, ldc, edge, nr, im, jn, acc)
			}
		}
	}
}

// packA copies the logical block A[rlo:rlo+mb, p0:p0+kb] into dst as
// micro-panels of mr rows (the active kernel's tile height): panel t holds,
// for each p, the mr values of rows rlo+t·mr .. rlo+t·mr+mr−1 at column p,
// zero-padded when mb is not a multiple of mr. The micro-kernel then streams
// each panel sequentially. lda is the stride between rows of a's storage:
// m when aT (a is [k,m]), k otherwise, or more for rows that sit apart.
func packA(dst, a []float32, aT bool, lda, rlo, mb, p0, kb, mr int) {
	for t := 0; t*mr < mb; t++ {
		panel := dst[t*kb*mr : (t+1)*kb*mr]
		rows := min(mr, mb-t*mr)
		base := rlo + t*mr
		if aT {
			// A stored [k,m]: column p of the block is contiguous.
			packRows(panel, a[p0*lda+base:], lda, rows, kb, mr)
		} else {
			packTransposed(panel, a[base*lda+p0:], lda, rows, kb, mr)
		}
	}
}

// packB copies the logical block B[p0:p0+kb, jlo:jlo+nb] into dst as
// micro-panels of nr columns (the active kernel's tile width): panel u
// holds, for each p, the nr values of columns jlo+u·nr .. jlo+u·nr+nr−1 at
// row p, zero-padded on the right edge. ldb is the stride between rows of
// b's storage: k when bT (b is [n,k]), n otherwise, or more.
func packB(dst, b []float32, bT bool, ldb, p0, kb, jlo, nb, nr int) {
	for u := 0; u*nr < nb; u++ {
		panel := dst[u*kb*nr : (u+1)*kb*nr]
		cols := min(nr, nb-u*nr)
		base := jlo + u*nr
		if bT {
			// B stored [n,k]: row j of storage is logical column j.
			packTransposed(panel, b[base*ldb+p0:], ldb, cols, kb, nr)
		} else {
			packRows(panel, b[p0*ldb+base:], ldb, cols, kb, nr)
		}
	}
}

// packRows fills one w-wide panel from storage whose panel rows are already
// contiguous: panel[p·w+r] = src[p·ld+r] for r < rows, zero for r ≥ rows.
// Full rows of the 16- and 8-wide tiers move as fixed-size arrays, which the
// compiler expands to vector moves instead of a memmove call per row.
func packRows(panel, src []float32, ld, rows, kb, w int) {
	switch {
	case rows == 16 && w == 16:
		for p := 0; p < kb; p++ {
			v := *(*[16]float32)(src[p*ld:])
			*(*[16]float32)(panel[p*16:]) = v
		}
	case rows == 8 && w == 8:
		for p := 0; p < kb; p++ {
			v := *(*[8]float32)(src[p*ld:])
			*(*[8]float32)(panel[p*8:]) = v
		}
	default:
		for p := 0; p < kb; p++ {
			d := panel[p*w : p*w+w]
			copy(d, src[p*ld:p*ld+rows])
			clear(d[rows:])
		}
	}
}

// packTransposed fills one w-wide panel from storage that runs along the
// panel's depth: panel[p·w+r] = src[r·ld+p] for r < rows, zero for r ≥ rows.
// It is a blocked transpose: eight (then four, two, one) source runs advance
// together so each step stores one contiguous group instead of w strided
// scalars. Rows past the block read a run of zeros, which pads the panel in
// the same pass. Where the active tier has a transpose kernel, the depths of
// each eight runs go through it eight at a time and only the depths past the
// last multiple of eight through the loop; a copy is a copy on every tier.
func packTransposed(panel, src []float32, ld, rows, kb, w int) {
	panel = panel[:kb*w]
	transpose := activeKernel.Load().transpose8x8
	r := 0
	for ; r+8 <= w; r += 8 {
		s0 := depthRun(src, ld, rows, kb, r)
		s1 := depthRun(src, ld, rows, kb, r+1)[:len(s0)]
		s2 := depthRun(src, ld, rows, kb, r+2)[:len(s0)]
		s3 := depthRun(src, ld, rows, kb, r+3)[:len(s0)]
		s4 := depthRun(src, ld, rows, kb, r+4)[:len(s0)]
		s5 := depthRun(src, ld, rows, kb, r+5)[:len(s0)]
		s6 := depthRun(src, ld, rows, kb, r+6)[:len(s0)]
		s7 := depthRun(src, ld, rows, kb, r+7)[:len(s0)]
		p := 0
		if transpose != nil && len(s0) >= 8 {
			// The kernel stores depths [0, p) of columns r..r+7 — the
			// furthest float is panel[(p−1)·w + r+7] — and reads
			// s0..s7[0:p]; both lie inside the slices above.
			p = len(s0) &^ 7
			transpose(&panel[r], uintptr(w*4), &s0[0], &s1[0], &s2[0], &s3[0], &s4[0], &s5[0], &s6[0], &s7[0], uintptr(p/8))
		}
		for ; p < len(s0); p++ {
			d := panel[p*w+r : p*w+r+8 : p*w+r+8]
			d[0], d[1], d[2], d[3] = s0[p], s1[p], s2[p], s3[p]
			d[4], d[5], d[6], d[7] = s4[p], s5[p], s6[p], s7[p]
		}
	}
	for ; r+4 <= w; r += 4 {
		s0 := depthRun(src, ld, rows, kb, r)
		s1 := depthRun(src, ld, rows, kb, r+1)[:len(s0)]
		s2 := depthRun(src, ld, rows, kb, r+2)[:len(s0)]
		s3 := depthRun(src, ld, rows, kb, r+3)[:len(s0)]
		for p := range s0 {
			d := panel[p*w+r : p*w+r+4 : p*w+r+4]
			d[0], d[1], d[2], d[3] = s0[p], s1[p], s2[p], s3[p]
		}
	}
	for ; r+2 <= w; r += 2 {
		s0 := depthRun(src, ld, rows, kb, r)
		s1 := depthRun(src, ld, rows, kb, r+1)[:len(s0)]
		for p := range s0 {
			d := panel[p*w+r : p*w+r+2 : p*w+r+2]
			d[0], d[1] = s0[p], s1[p]
		}
	}
	for ; r < w; r++ {
		for p, v := range depthRun(src, ld, rows, kb, r) {
			panel[p*w+r] = v
		}
	}
}

// zeroRun is what depthRun hands out for the padding rows of a panel.
var zeroRun [kcGEMM]float32

// depthRun returns the kb values along the depth of block row r, or zeros
// once r is past the block's rows.
func depthRun(src []float32, ld, rows, kb, r int) []float32 {
	if r < rows {
		return src[r*ld : r*ld+kb]
	}
	return zeroRun[:kb]
}

// microTileGo accumulates an mb×nb (≤ 4×8) tile of C from packed panels ap
// (mr·kb) and bp (nr·kb). It is the portable micro-kernel of the generic
// tier on machines without FMA (fused machines use microTileFMA so results
// match the hardware kernels bit-for-bit). Panels are zero-padded, so the
// full 4×8 tile is always computed and the invalid fringe merely discarded
// on write-back.
func microTileGo(c []float32, ldc int, ap, bp []float32, kb int, acc bool, mb, nb int) {
	var tile [mrGEMM][nrGEMM]float32
	ap = ap[: kb*mrGEMM : kb*mrGEMM]
	bp = bp[: kb*nrGEMM : kb*nrGEMM]
	for p := 0; p < kb; p++ {
		av := ap[p*mrGEMM : p*mrGEMM+mrGEMM : p*mrGEMM+mrGEMM]
		bv := bp[p*nrGEMM : p*nrGEMM+nrGEMM : p*nrGEMM+nrGEMM]
		for r := 0; r < mrGEMM; r++ {
			ar := av[r]
			for j := 0; j < nrGEMM; j++ {
				tile[r][j] += ar * bv[j]
			}
		}
	}
	for i := 0; i < mb; i++ {
		row := c[i*ldc : i*ldc+nb]
		if acc {
			for j := 0; j < nb; j++ {
				row[j] += tile[i][j]
			}
		} else {
			for j := 0; j < nb; j++ {
				row[j] = tile[i][j]
			}
		}
	}
}

func boolToUint64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// gemmDirect handles products too small to amortise packing. A tier with
// small-product kernels (kernel.go) runs them; every other runs the scalar
// loops of gemmDirectScalar. Both give each element of C the same operations
// in the same order — a separately rounded multiply and add per depth step,
// depth ascending — so the choice moves no bit.
func gemmDirect(c, a, b []float32, aT, bT bool, m, k, n int, accumulate bool) {
	kern := activeKernel.Load()
	// A single row against a B stored [n,k] is cheaper in the scalar loops
	// than the transposed copy alone.
	if kern.directChain == nil || bT && m == 1 {
		gemmDirectScalar(c, a, b, aT, bT, m, k, n, accumulate)
		return
	}
	lda, _ := storageStrides(aT, bT, m, k, n)
	if !bT {
		gemmDirectSIMD(kern, c, n, a, aT, lda, b, n, false, m, k, n, accumulate)
		return
	}
	// The kernels vectorise across the columns of C and so want row p of B
	// contiguous; for a B stored [n,k] that is a transposed copy.
	bt := Scratch.Get(k * n) // pool miss allocates once; steady state reuses
	packTransposed(bt.Data, b, k, n, k, n)
	gemmDirectSIMD(kern, c, n, a, aT, lda, bt.Data, n, true, m, k, n, accumulate)
	Scratch.Put(bt)
}

// gemmDirectSIMD runs one small product through kern's small-product
// kernels. A is a (row stride lda; stored [k,m] when aT), C has row stride
// ldc, and b holds B as [k,n] rows of stride ldb — the operand itself, or
// with dot set the transposed copy of one stored [n,k]. dot also selects the
// sum the scalar loop of that storage form computes: a complete dot product
// from +0, stored or added to C once, where the [k,n] forms start from C (or
// +0) and add one product at a time.
func gemmDirectSIMD(kern *gemmKernel, c []float32, ldc int, a []float32, aT bool, lda int, b []float32, ldb int, dot bool, m, k, n int, accumulate bool) {
	aRow, aDepth := lda, 1
	if aT {
		aRow, aDepth = 1, lda
	}
	// The kernels index raw pointers: touch the last element each operand
	// is read or written at, so a short slice panics here.
	_ = c[(m-1)*ldc+n-1]
	_ = a[(m-1)*aRow+(k-1)*aDepth]
	_ = b[(k-1)*ldb+n-1]
	fn, flags := kern.directChain, uint64(0)
	if dot {
		fn = kern.directDot
	}
	if accumulate {
		flags = 1
		if dot {
			flags = 2
		}
	}
	fn(&c[0], &a[0], &b[0], uintptr(m), uintptr(k), uintptr(n),
		uintptr(aRow*4), uintptr(aDepth*4), uintptr(ldb*4), uintptr(ldc*4), flags)
}

// gemmDirectScalar is the small-product path in portable Go: plain loops in
// the best order for each storage combination, with no per-element branches.
// It is what runs where there is no small-product kernel (other
// architectures, no AVX, the generic tier) and the oracle the kernels are
// tested against, so its operation order is the definition of the result.
func gemmDirectScalar(c, a, b []float32, aT, bT bool, m, k, n int, accumulate bool) {
	switch {
	case !aT && !bT:
		if !accumulate {
			clear(c[:m*n])
		}
		for i := 0; i < m; i++ {
			ci := c[i*n : i*n+n]
			ai := a[i*k : i*k+k]
			for p, aip := range ai {
				bp := b[p*n : p*n+n]
				for j, bv := range bp {
					ci[j] += aip * bv
				}
			}
		}
	case aT && !bT:
		if !accumulate {
			clear(c[:m*n])
		}
		for p := 0; p < k; p++ {
			ap := a[p*m : p*m+m]
			bp := b[p*n : p*n+n]
			for i, av := range ap {
				ci := c[i*n : i*n+n]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	case !aT && bT:
		for i := 0; i < m; i++ {
			ai := a[i*k : i*k+k]
			ci := c[i*n : i*n+n]
			for j := 0; j < n; j++ {
				bj := b[j*k : j*k+k]
				var s float32
				for p, av := range ai {
					s += av * bj[p]
				}
				if accumulate {
					ci[j] += s
				} else {
					ci[j] = s
				}
			}
		}
	default: // aT && bT — reached through PackedA.Pack(aT) + PackedB.Pack(bT).
		for i := 0; i < m; i++ {
			ci := c[i*n : i*n+n]
			for j := 0; j < n; j++ {
				bj := b[j*k : j*k+k]
				var s float32
				for p := 0; p < k; p++ {
					s += a[p*m+i] * bj[p]
				}
				if accumulate {
					ci[j] += s
				} else {
					ci[j] = s
				}
			}
		}
	}
}

// MatVec computes y = A·x for A of shape [m,n] and x of length n.
func MatVec(a *Tensor, x []float32) []float32 {
	if len(a.Shape) != 2 || a.Shape[1] != len(x) {
		panic(fmt.Sprintf("tensor: MatVec shape %v with vector length %d", a.Shape, len(x)))
	}
	y := make([]float32, a.Shape[0])
	matVec(y, a.Data, x, a.Shape[0], a.Shape[1], false)
	return y
}

// MatVecInto computes y = A·x (or y += A·x when accumulate is true) into an
// existing length-m slice.
func MatVecInto(y []float32, a *Tensor, x []float32, accumulate bool) {
	if len(a.Shape) != 2 || a.Shape[1] != len(x) {
		panic(fmt.Sprintf("tensor: MatVecInto shape %v with vector length %d", a.Shape, len(x)))
	}
	if len(y) != a.Shape[0] {
		panic(fmt.Sprintf("tensor: MatVecInto output length %d, want %d", len(y), a.Shape[0]))
	}
	matVec(y, a.Data, x, a.Shape[0], a.Shape[1], accumulate)
}

// matVec processes four rows of A per pass so each x element is loaded once
// per four multiply-adds.
func matVec(y, a, x []float32, m, n int, accumulate bool) {
	i := 0
	for ; i+4 <= m; i += 4 {
		r0 := a[(i+0)*n : (i+0)*n+n]
		r1 := a[(i+1)*n : (i+1)*n+n]
		r2 := a[(i+2)*n : (i+2)*n+n]
		r3 := a[(i+3)*n : (i+3)*n+n]
		var s0, s1, s2, s3 float32
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		if accumulate {
			y[i] += s0
			y[i+1] += s1
			y[i+2] += s2
			y[i+3] += s3
		} else {
			y[i], y[i+1], y[i+2], y[i+3] = s0, s1, s2, s3
		}
	}
	for ; i < m; i++ {
		row := a[i*n : i*n+n]
		var s float32
		for j, xv := range x {
			s += row[j] * xv
		}
		if accumulate {
			y[i] += s
		} else {
			y[i] = s
		}
	}
}

func roundUp(v, to int) int { return (v + to - 1) / to * to }
