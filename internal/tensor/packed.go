package tensor

import "fmt"

// Pre-packed GEMM operands. gemmBlocked packs both operands on every call,
// which is the right trade for one-off products but not for a convolution
// layer, where the same kernel matrix meets a fresh column matrix once per
// sample: there the weights would be re-packed per sample, and the layer
// would spend more time copying than multiplying. PackedA and PackedB let a
// caller pack an operand once and multiply it many times.
//
// Results are bit-identical to the MatMul*Into entry points for the same
// logical operands and (m, k, n):
//
//   - the direct-vs-blocked choice is made from the same 2·m·k·n product
//     against smallGEMMFLOPs (which is why Pack takes all three
//     dimensions); a product on the direct side keeps a reference to the
//     caller's storage and GEMMPacked runs it through what gemmDirect would
//     have run, the tier's small-product kernels or the scalar loops. The
//     kernels want a B stored [n,k] transposed, and that copy is what a
//     PackedB keeps on this side: made once per Pack, not once per product;
//   - on the blocked side the panels hold the same values gemmBlocked's
//     packA/packB would have produced for each kc-deep chunk, and
//     GEMMPacked walks (jc, pc, ic) in gemmBlocked's order through the same
//     gemmMacro, so every C element sees the same chunk sums added in the
//     same sequence.
//
// The packed path never shards across the GEMM worker pool; sharding only
// reorders independent tiles, so skipping it cannot change a result.
//
// Panel layout: chunk pc (a multiple of kc) of a packed A starts at
// pc·roundUp(m, mr) and holds the panels of all m rows, kb·mr floats each;
// a packed B chunk starts at pc·roundUp(n, nr) and holds the panels of all n
// columns, kb·nr floats each. The mc/nc cache blocks of the driver are whole
// runs of panels, so the layout does not depend on them.
//
// A packed operand is owned by one goroutine at a time.

// PackedA is the left operand of GEMMPacked: a logical [m,k] matrix.
type PackedA struct {
	m, k, n int
	// kern is the tier that was active at Pack time. On the direct side
	// (2·m·k·n below smallGEMMFLOPs) src, row stride ld, is multiplied in
	// place; otherwise buf holds kern's panels.
	kern *gemmKernel
	src  []float32
	srcT bool
	ld   int
	buf  []float32 // grow-only panel storage
	// edge stages partial tiles for the assembly kernels (see gemmBlocked).
	edge [mrMax * nrMax]float32
}

// PackedB is the right operand of GEMMPacked: a logical [k,n] matrix. On the
// direct side of a tier with small-product kernels buf holds the [k,n] copy
// of a src stored [n,k].
type PackedB struct {
	m, k, n int
	kern    *gemmKernel
	src     []float32
	srcT    bool
	ld      int
	buf     []float32
}

// growF32 returns buf re-sliced to n elements, reallocating only when its
// capacity is too small. Contents are unspecified.
func growF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// directSide reports whether gemm would run this product through gemmDirect.
func directSide(m, k, n int) bool { return 2*m*k*n < smallGEMMFLOPs }

// Pack prepares the logical [m,k] operand A for products with [k,n] right
// operands. aT selects the storage: a is [k,m] when set (the MatMulTA
// layout), [m,k] otherwise. On the direct side (see the file comment) a is
// referenced, not copied, and must stay unchanged until the last product.
//
//fedmp:allocfree
func (p *PackedA) Pack(a []float32, aT bool, m, k, n int) {
	p.pack(a, aT, 0, m, k, n)
}

// PackRows is Pack for an [m,k] operand whose rows lie lda ≥ k elements
// apart in a — one timestep of an [N,T,D] activation, say — so the caller
// need not gather them first.
//
//fedmp:allocfree
func (p *PackedA) PackRows(a []float32, lda, m, k, n int) {
	checkRows("PackedA.PackRows", len(a), lda, m, k)
	p.pack(a, false, lda, m, k, n)
}

// pack is Pack and PackRows: lda is the row stride of a, or 0 for a
// contiguous operand in either storage form. (The zero keeps Pack a one-line
// wrapper the compiler inlines, so a layer's per-sample Pack calls are as
// deep as when Pack held this body.)
//
//fedmp:allocfree
func (p *PackedA) pack(a []float32, aT bool, lda, m, k, n int) {
	if lda == 0 {
		if len(a) != m*k {
			panic(fmt.Sprintf("tensor: PackedA.Pack operand length %d, want %d×%d", len(a), m, k))
		}
		lda, _ = storageStrides(aT, false, m, k, n)
	}
	p.m, p.k, p.n = m, k, n
	p.kern = activeKernel.Load()
	p.src, p.srcT, p.ld = a, aT, lda
	if directSide(m, k, n) {
		if p.kern.directChain == nil && !aT && lda != k {
			// The scalar loops read contiguous operands only.
			p.buf = growF32(p.buf, m*k) //fedmp:transitive-ok — grows once per geometry; steady state re-slices
			gatherRows(p.buf, a, lda, m, k)
			p.src, p.ld = p.buf, k
		}
		return
	}
	mr := p.kern.mr
	mp := roundUp(m, mr)
	p.buf = growF32(p.buf, mp*k) //fedmp:transitive-ok — grows once per geometry; steady state re-slices
	for pc := 0; pc < k; pc += kcGEMM {
		packA(p.buf[pc*mp:], a, aT, lda, 0, m, pc, min(kcGEMM, k-pc), mr)
	}
}

// Pack prepares the logical [k,n] operand B for products with [m,k] left
// operands. bT selects the storage: b is [n,k] when set (the MatMulTB
// layout), [k,n] otherwise. On the direct side a b stored [k,n] is
// referenced, not copied.
//
//fedmp:allocfree
func (p *PackedB) Pack(b []float32, bT bool, m, k, n int) {
	p.pack(b, bT, 0, m, k, n)
}

// PackRows is Pack for a [k,n] operand whose rows lie ldb ≥ n elements apart
// in b.
//
//fedmp:allocfree
func (p *PackedB) PackRows(b []float32, ldb, m, k, n int) {
	checkRows("PackedB.PackRows", len(b), ldb, k, n)
	p.pack(b, false, ldb, m, k, n)
}

// pack is Pack and PackRows; ldb is the row stride of b, or 0 for a
// contiguous operand in either storage form (see PackedA.pack).
//
//fedmp:allocfree
func (p *PackedB) pack(b []float32, bT bool, ldb, m, k, n int) {
	if ldb == 0 {
		if len(b) != k*n {
			panic(fmt.Sprintf("tensor: PackedB.Pack operand length %d, want %d×%d", len(b), k, n))
		}
		_, ldb = storageStrides(false, bT, m, k, n)
	}
	p.m, p.k, p.n = m, k, n
	p.kern = activeKernel.Load()
	p.src, p.srcT, p.ld = b, bT, ldb
	if directSide(m, k, n) {
		if simd := p.kern.directChain != nil; simd && bT {
			// The kernels want row p of B contiguous: the [k,n] copy.
			p.buf = growF32(p.buf, k*n) //fedmp:transitive-ok — grows once per geometry; steady state re-slices
			packTransposed(p.buf, b, k, n, k, n)
		} else if !simd && !bT && ldb != n {
			// The scalar loops read contiguous operands only.
			p.buf = growF32(p.buf, k*n) //fedmp:transitive-ok — grows once per geometry; steady state re-slices
			gatherRows(p.buf, b, ldb, k, n)
			p.src, p.ld = p.buf, n
		}
		return
	}
	nr := p.kern.nr
	np := roundUp(n, nr)
	p.buf = growF32(p.buf, k*np) //fedmp:transitive-ok — grows once per geometry; steady state re-slices
	for pc := 0; pc < k; pc += kcGEMM {
		packB(p.buf[pc*np:], b, bT, ldb, pc, min(kcGEMM, k-pc), 0, n, nr)
	}
}

// checkRows panics unless have elements hold rows rows of w elements ld
// apart.
func checkRows(op string, have, ld, rows, w int) {
	if ld < w || rows > 0 && have < (rows-1)*ld+w {
		panic(fmt.Sprintf("tensor: %s operand length %d with row stride %d, want %d rows of %d", op, have, ld, rows, w))
	}
}

// gatherRows copies rows rows of w elements, ld apart in src, into the
// contiguous dst.
func gatherRows(dst, src []float32, ld, rows, w int) {
	for i := 0; i < rows; i++ {
		copy(dst[i*w:i*w+w], src[i*ld:i*ld+w])
	}
}

// GEMMPacked computes C = A·B (or C += A·B when accumulate is set) into the
// row-major [m,n] slice c from operands packed for the same (m, k, n).
//
//fedmp:allocfree
func GEMMPacked(c []float32, a *PackedA, b *PackedB, accumulate bool) {
	m, k, n := a.m, a.k, a.n
	if b.m != m || b.k != k || b.n != n || a.kern != b.kern {
		panic(fmt.Sprintf("tensor: GEMMPacked operands packed for [%d %d %d] and [%d %d %d]", m, k, n, b.m, b.k, b.n))
	}
	if len(c) != m*n {
		panic(fmt.Sprintf("tensor: GEMMPacked output length %d, want %d×%d", len(c), m, n))
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accumulate {
			clear(c)
		}
		return
	}
	kern := a.kern
	if directSide(m, k, n) {
		if kern.directChain == nil {
			gemmDirectScalar(c, a.src, b.src, a.srcT, b.srcT, m, k, n, accumulate)
			return
		}
		brows, ldb := b.src, b.ld
		if b.srcT {
			brows, ldb = b.buf, n
		}
		gemmDirectSIMD(kern, c, n, a.src, a.srcT, a.ld, brows, ldb, b.srcT, m, k, n, accumulate)
		return
	}
	mr, nr := kern.mr, kern.nr
	mp, np := roundUp(m, mr), roundUp(n, nr)
	for jc := 0; jc < n; jc += kern.nc {
		nb := min(kern.nc, n-jc)
		for pc := 0; pc < k; pc += kcGEMM {
			kb := min(kcGEMM, k-pc)
			bp := b.buf[pc*np+(jc/nr)*kb*nr:]
			acc := accumulate || pc > 0
			for ic := 0; ic < m; ic += kern.mc {
				mb := min(kern.mc, m-ic)
				ap := a.buf[pc*mp+(ic/mr)*kb*mr:]
				gemmMacro(kern, c[ic*n+jc:], n, ap, bp, mb, nb, kb, acc, a.edge[:])
			}
		}
	}
}
