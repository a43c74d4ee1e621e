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
//     caller's storage and GEMMPacked runs gemmDirect over it, the very
//     loops gemm would have run;
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
	// kern is the tier whose panel geometry buf follows; nil when the
	// product is below smallGEMMFLOPs and src is multiplied directly.
	kern *gemmKernel
	src  []float32
	srcT bool
	buf  []float32 // grow-only panel storage
	// edge stages partial tiles for the assembly kernels (see gemmBlocked).
	edge [mrMax * nrMax]float32
}

// PackedB is the right operand of GEMMPacked: a logical [k,n] matrix.
type PackedB struct {
	m, k, n int
	kern    *gemmKernel
	src     []float32
	srcT    bool
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

// packedKernel returns the kernel a product of this size packs for, or nil
// when gemm would run it through the direct loops.
func packedKernel(m, k, n int) *gemmKernel {
	if 2*m*k*n < smallGEMMFLOPs {
		return nil
	}
	return activeKernel.Load()
}

// Pack prepares the logical [m,k] operand A for products with [k,n] right
// operands. aT selects the storage: a is [k,m] when set (the MatMulTA
// layout), [m,k] otherwise. On the direct side (see the file comment) a is
// referenced, not copied, and must stay unchanged until the last product.
//
//fedmp:allocfree
func (p *PackedA) Pack(a []float32, aT bool, m, k, n int) {
	if len(a) != m*k {
		panic(fmt.Sprintf("tensor: PackedA.Pack operand length %d, want %d×%d", len(a), m, k))
	}
	p.m, p.k, p.n = m, k, n
	p.src, p.srcT = a, aT
	p.kern = packedKernel(m, k, n)
	if p.kern == nil {
		return
	}
	mr := p.kern.mr
	mp := roundUp(m, mr)
	p.buf = growF32(p.buf, mp*k) //fedmp:transitive-ok — grows once per geometry; steady state re-slices
	for pc := 0; pc < k; pc += kcGEMM {
		packA(p.buf[pc*mp:], a, aT, m, k, 0, m, pc, min(kcGEMM, k-pc), mr)
	}
}

// Pack prepares the logical [k,n] operand B for products with [m,k] left
// operands. bT selects the storage: b is [n,k] when set (the MatMulTB
// layout), [k,n] otherwise. On the direct side b is referenced, not copied.
//
//fedmp:allocfree
func (p *PackedB) Pack(b []float32, bT bool, m, k, n int) {
	if len(b) != k*n {
		panic(fmt.Sprintf("tensor: PackedB.Pack operand length %d, want %d×%d", len(b), k, n))
	}
	p.m, p.k, p.n = m, k, n
	p.src, p.srcT = b, bT
	p.kern = packedKernel(m, k, n)
	if p.kern == nil {
		return
	}
	nr := p.kern.nr
	np := roundUp(n, nr)
	p.buf = growF32(p.buf, k*np) //fedmp:transitive-ok — grows once per geometry; steady state re-slices
	for pc := 0; pc < k; pc += kcGEMM {
		packB(p.buf[pc*np:], b, bT, k, n, pc, min(kcGEMM, k-pc), 0, n, nr)
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
	if kern == nil {
		gemmDirect(c, a.src, b.src, a.srcT, b.srcT, m, k, n, accumulate)
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
