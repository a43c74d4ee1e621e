package tensor

import "fmt"

// Indirect convolution (Dukhan 2019, the QNNPACK/XNNPACK design): all three
// of a convolution's products run without a column matrix. Lowering (Im2Col +
// Pack + GEMMPacked) writes every input value K² times into cols and then
// copies cols into B panels, forward and again backward, and backward also
// builds the column gradient Wᵀ·dy and scatters it with Col2Im —
// InC·K²·outArea floats per sample each time, a cost pruning does not shrink.
// Here the sample is copied once into a zero-bordered [InC][InH+2Pad][InW+2Pad]
// scratch, and the micro-kernel finds the column matrix's element (tap,
// position) at
//
//	xpad[taps[tap] + pos[position]]
//	taps[(c,kh,kw)] = (c·Hp + kh)·Wp + kw     pos[(oh,ow)] = oh·Wp + ow
//
// (stride 1). Eight consecutive positions of one output row are eight
// consecutive floats, so with OutW a multiple of 8 each half of a 16-column
// B step is one vector load. The input gradient runs the same tables the
// other way: the column gradient's row for a tap is added into a
// zero-bordered gradient at dxpad[taps[tap] + pos[position]].
//
// No bit moves against the lowered products. Every element of y, dW and Wᵀ·dy
// is still one fused multiply-add chain per kc-deep chunk, depth ascending
// from +0, over the values the packed panels would have held — a padding tap
// reads a real zero from the border, as it read Im2Col's — and the chunk sum
// is stored or added once, chunks in order (dW's in a transposed copy, see
// AddGradW); and every element of dx receives Col2Im's adds in Col2Im's order
// (see GradX). Lowering stays the definition and serves whatever Plan
// declines.
//
// An IndirectConv is owned by one goroutine at a time.
type IndirectConv struct {
	g      ConvGeom    // the geometry Plan last answered for,
	kern   *gemmKernel // the tier it answered for,
	serves bool        // and the answer; when true the rest is laid out for it
	xpad   []float32   // the loaded sample inside its zero border
	// taps has one offset per row of the column matrix, then repeats of the
	// last up to a multiple of the tile height, so a tile of six always has
	// six rows to read; pos has one per output position; filt has one per
	// filter, the start of its plane in a sample's output gradient.
	taps, pos, filt []int
	// dxpad is GradX's input gradient inside its border, panel one tile
	// height of taps of the column gradient, [mr, outArea]; GradX grows both.
	dxpad, panel []float32
	// dwT is the weight gradient transposed, [roundUp(rows, mr)] rows of
	// roundUp(OutC, nr), between BeginGradW and EndGradW. Its padding rows
	// take the repeated taps' sums and its padding columns the zero-padded
	// filters'; neither is copied out.
	dwT []float32
	// tile stages partial tiles of y and of the column gradient.
	tile [mrMax * nrMax]float32
}

// indirectServes reports whether kern multiplies g's products out of a padded
// sample: it has the kernels, the eight positions of a B half are contiguous
// (stride 1, whole halves per output row, whole panels per plane), and the
// product is on the blocked side of smallGEMMFLOPs — the direct side sums
// differently and stays where it is.
func indirectServes(kern *gemmKernel, g ConvGeom) bool {
	outW, outArea := g.OutW(), g.OutH()*g.OutW()
	return kern.indirectB != nil && g.Stride == 1 && outW%8 == 0 && outArea%16 == 0 &&
		!directSide(g.OutC, g.InC*g.KH*g.KW, outArea)
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// Plan reports whether the active tier serves convolution g indirectly and,
// if so, lays ic out for it. The answer depends on the geometry and the tier
// alone. Where it is false the caller lowers; where it is true Load, Mul and
// AddGradW (between BeginGradW and EndGradW) stand in for Im2Col and the two
// products that read the column matrix, and GradX for the column gradient
// and Col2Im.
func (ic *IndirectConv) Plan(g ConvGeom) bool {
	kern := activeKernel.Load()
	if ic.kern == kern && ic.g == g {
		return ic.serves
	}
	ic.kern, ic.g, ic.serves = kern, g, indirectServes(kern, g)
	if !ic.serves {
		return false
	}
	hp, wp := g.InH+2*g.Pad, g.InW+2*g.Pad
	rows, outW, outArea := g.InC*g.KH*g.KW, g.OutW(), g.OutH()*g.OutW()
	ic.xpad = growF32(ic.xpad, g.InC*hp*wp) // grows once per geometry; steady state re-slices
	// Load writes the interior only: the border is zeroed here.
	clear(ic.xpad)
	ic.taps = growInts(ic.taps, roundUp(rows, kern.mr)) // grows once per geometry; steady state re-slices
	ic.pos = growInts(ic.pos, outArea)                  // grows once per geometry; steady state re-slices
	ic.filt = growInts(ic.filt, g.OutC)                 // grows once per geometry; steady state re-slices
	ic.dwT = growF32(ic.dwT, dwTSize(kern, g))          // grows once per geometry; steady state re-slices
	for f := range ic.filt {
		ic.filt[f] = f * outArea
	}
	t := 0
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				ic.taps[t] = (c*hp+kh)*wp + kw
				t++
			}
		}
	}
	for ; t < len(ic.taps); t++ {
		ic.taps[t] = ic.taps[rows-1]
	}
	for j := range ic.pos {
		ic.pos[j] = j/outW*wp + j%outW
	}
	return true
}

// Load copies one sample x (layout [InC,InH,InW]) inside the border.
func (ic *IndirectConv) Load(x []float32) {
	g := ic.g
	if len(x) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: IndirectConv.Load input length %d, want %d", len(x), g.InC*g.InH*g.InW))
	}
	hp, wp := g.InH+2*g.Pad, g.InW+2*g.Pad
	for c := 0; c < g.InC; c++ {
		for h := 0; h < g.InH; h++ {
			at := (c*hp+h+g.Pad)*wp + g.Pad
			copy(ic.xpad[at:at+g.InW], x[(c*g.InH+h)*g.InW:])
		}
	}
}

// Mul computes y = W·cols for the loaded sample, cols being what Im2Col would
// make of it: y is [OutC, outArea] and w is W packed for that product,
// Pack(W, false, OutC, rows, outArea). It is GEMMPacked's walk with row p of
// each B panel loaded from the sample.
func (ic *IndirectConv) Mul(y []float32, w *PackedA) {
	g, kern := ic.g, ic.kern
	m, k, n := g.OutC, g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	if !ic.serves || w.kern != kern || w.m != m || w.k != k || w.n != n {
		panic(fmt.Sprintf("tensor: IndirectConv.Mul weights packed for [%d %d %d], want [%d %d %d] on a tier Plan accepted", w.m, w.k, w.n, m, k, n))
	}
	if len(y) != m*n {
		panic(fmt.Sprintf("tensor: IndirectConv.Mul output length %d, want %d×%d", len(y), m, n))
	}
	mr, nr := kern.mr, kern.nr
	mp := roundUp(m, mr)
	// The kernel indexes raw pointers. Both tables ascend, so this is the
	// furthest float it reads: the last tap from the last position.
	_ = ic.xpad[ic.taps[k-1]+ic.pos[n-1]]
	for pc := 0; pc < k; pc += kcGEMM {
		kb := min(kcGEMM, k-pc)
		taps, acc := &ic.taps[pc], pc > 0
		for i0 := 0; i0 < m; i0 += kern.mc {
			mb := min(kern.mc, m-i0)
			ap := w.buf[pc*mp+(i0/mr)*kb*mr:]
			for j := 0; j < n; j += nr {
				x0, x1 := &ic.xpad[ic.pos[j]], &ic.xpad[ic.pos[j+nr/2]]
				for ir := 0; ir < mb; ir += mr {
					ic.mulTile(y[(i0+ir)*n+j:], n, &ap[(ir/mr)*kb*mr], x0, x1, taps, kb, mb-ir, acc)
				}
			}
		}
	}
}

// mulTile is one tile of GEMMPacked's walk with B read in place by
// indirectB: the kb-deep chunk sum of A panel apan against the sixteen
// columns at x0 and x1 through taps, stored or added into c (row stride ldc),
// of which only the first im ≤ mr rows are wanted. A partial tile is staged
// and merged, as gemmMacro merges an edge tile.
func (ic *IndirectConv) mulTile(c []float32, ldc int, apan, x0, x1 *float32, taps *int, kb, im int, acc bool) {
	kern := ic.kern
	if im < kern.mr {
		kern.indirectB(&ic.tile[0], uintptr(kern.nr*4), apan, x0, x1, taps, uint64(kb), 0)
		mergeTile(c, ldc, ic.tile[:], kern.nr, im, kern.nr, acc)
		return
	}
	kern.indirectB(&c[0], uintptr(ldc*4), apan, x0, x1, taps, uint64(kb), boolToUint64(acc))
}

// GradX writes one sample's input gradient into dx (layout [InC,InH,InW]):
// what Col2Im makes of Wᵀ·dy into a zeroed dx, dy being the sample's output
// gradient [OutC, outArea] and wT the weights packed for that product,
// Pack(W, true, rows, OutC, outArea).
//
// Neither the column gradient nor a packed dy exists. For each panel of six
// taps, its [6, outArea] block of Wᵀ·dy is staged — GEMMPacked's walk, with
// row f of each 16-position B step read from dy at filt[f] — and then the
// panel's valid taps are added one at a time, in ascending order, into the
// zero-bordered dxpad at taps[t] + pos[q]; the interior is copied out last.
// So every element of dx receives the values Col2Im would add to it, in
// Col2Im's order (tap ascending), from +0, each add with the running sum
// first; the border takes the adds Col2Im skips and is never read. The block
// is staged per panel, not scattered per tile, because taps t and t+1 reach
// one element from positions q and q−1, which can lie in different
// 16-position tiles.
func (ic *IndirectConv) GradX(dx, dy []float32, wT *PackedA) {
	g, kern := ic.g, ic.kern
	rows, outC, outArea := g.InC*g.KH*g.KW, g.OutC, g.OutH()*g.OutW()
	if !ic.serves || wT.kern != kern || wT.m != rows || wT.k != outC || wT.n != outArea {
		panic(fmt.Sprintf("tensor: IndirectConv.GradX weights packed for [%d %d %d], want [%d %d %d] on a tier Plan accepted", wT.m, wT.k, wT.n, rows, outC, outArea))
	}
	if len(dy) != outC*outArea {
		panic(fmt.Sprintf("tensor: IndirectConv.GradX gradient length %d, want %d×%d", len(dy), outC, outArea))
	}
	if len(dx) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: IndirectConv.GradX output length %d, want %d", len(dx), g.InC*g.InH*g.InW))
	}
	mr, nr := kern.mr, kern.nr
	mp := roundUp(rows, mr)
	// Grown here, not in Plan: a layer that only needs its weight gradient
	// never holds them.
	ic.dxpad = growF32(ic.dxpad, len(ic.xpad)) // grows once per geometry; steady state re-slices
	ic.panel = growF32(ic.panel, mr*outArea)   // grows once per geometry; steady state re-slices
	clear(ic.dxpad)
	_ = ic.dxpad[ic.taps[rows-1]+ic.pos[outArea-1]] // the furthest add, as in Mul
	for t0 := 0; t0 < rows; t0 += mr {
		nt := min(mr, rows-t0)
		for pc := 0; pc < outC; pc += kcGEMM {
			kb := min(kcGEMM, outC-pc)
			apan, filt, acc := &wT.buf[pc*mp+t0*kb], &ic.filt[pc], pc > 0
			for j := 0; j < outArea; j += nr {
				ic.mulTile(ic.panel[j:], outArea, apan, &dy[j], &dy[j+nr/2], filt, kb, nt, acc)
			}
		}
		for t := t0; t < t0+nt; t++ {
			kern.addRuns(&ic.dxpad[ic.taps[t]], &ic.panel[(t-t0)*outArea], &ic.pos[0], uint64(outArea/8))
		}
	}
	hp, wp := g.InH+2*g.Pad, g.InW+2*g.Pad
	for c := 0; c < g.InC; c++ {
		for h := 0; h < g.InH; h++ {
			at := (c*hp+h+g.Pad)*wp + g.Pad
			copy(dx[(c*g.InH+h)*g.InW:][:g.InW], ic.dxpad[at:])
		}
	}
}

// dwTSize is the length of dWᵀ for g on kern: whole tiles in both directions.
func dwTSize(kern *gemmKernel, g ConvGeom) int {
	return roundUp(g.InC*g.KH*g.KW, kern.mr) * roundUp(g.OutC, kern.nr)
}

// BeginGradW copies dw [OutC, rows] transposed into the accumulator that
// AddGradW adds each sample's product into; EndGradW copies it back. Both
// are copies: a batch's dW comes out with the bits AddGradW's adds give it,
// whatever the layout in between.
func (ic *IndirectConv) BeginGradW(dw []float32) {
	outC, rows, np := ic.gradWShape("BeginGradW", dw)
	for p0 := 0; p0 < rows; p0 += kcGEMM {
		// Depth runs of at most kc: the filter columns past OutC are
		// zeros out of zeroRun.
		packTransposed(ic.dwT[p0*np:], dw[p0:], rows, outC, min(kcGEMM, rows-p0), np)
	}
	// The padding rows restart from zero, so what they absorb never
	// outgrows one batch.
	clear(ic.dwT[rows*np:])
}

// EndGradW copies the accumulated gradient back into dw [OutC, rows].
func (ic *IndirectConv) EndGradW(dw []float32) {
	outC, rows, np := ic.gradWShape("EndGradW", dw)
	packTransposed(dw, ic.dwT, np, rows, outC, rows)
}

// gradWShape checks dw against the plan and returns OutC, the row count and
// dWᵀ's row stride.
func (ic *IndirectConv) gradWShape(op string, dw []float32) (outC, rows, np int) {
	g := ic.g
	outC, rows = g.OutC, g.InC*g.KH*g.KW
	if !ic.serves || len(dw) != outC*rows {
		panic(fmt.Sprintf("tensor: IndirectConv.%s gradient length %d, want %d×%d on a tier Plan accepted", op, len(dw), outC, rows))
	}
	return outC, rows, roundUp(outC, ic.kern.nr)
}

// AddGradW adds dy·colsᵀ for the loaded sample to the weight gradient
// BeginGradW opened. dyT is the sample's output gradient dy [OutC, outArea]
// packed transposed: Pack(dy, true, rows, outArea, OutC).
//
// The lowered product broadcasts dy and streams colsᵀ in 16-tap panels; a
// step of those is 16 strided floats here. So the roles swap: each tile is 6
// taps × 16 filters of dWᵀ, the taps broadcast from the sample and dyᵀ
// streamed from its panels, and the kernel adds the tile into dWᵀ in place.
// Per element nothing changed: the chain runs over the same positions in the
// same chunks, dy's value is still the FMA's first multiplicand (see
// gemmKernel6x16fmaIndA), and the chunk sum is the first operand of the one
// add, as in the kernels' accumulate step and in mergeTile; each element
// receives its chunk sums in sample order, then chunk order, as the lowered
// GEMMPacked(dw, …, true) per sample adds them.
func (ic *IndirectConv) AddGradW(dyT *PackedB) {
	g, kern := ic.g, ic.kern
	outC, rows, outArea := g.OutC, g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	if !ic.serves || dyT.kern != kern || dyT.m != rows || dyT.k != outArea || dyT.n != outC {
		panic(fmt.Sprintf("tensor: IndirectConv.AddGradW gradient packed for [%d %d %d], want [%d %d %d] on a tier Plan accepted", dyT.m, dyT.k, dyT.n, rows, outArea, outC))
	}
	mr, nr := kern.mr, kern.nr
	np := roundUp(outC, nr)
	_ = ic.xpad[ic.taps[rows-1]+ic.pos[outArea-1]] // as in Mul
	_ = ic.dwT[roundUp(rows, mr)*np-1]             // the last tile's last float
	for pc := 0; pc < outArea; pc += kcGEMM {
		kb := min(kcGEMM, outArea-pc)
		for f0 := 0; f0 < outC; f0 += nr {
			bpan := &dyT.buf[pc*np+(f0/nr)*kb*nr]
			for t0 := 0; t0 < rows; t0 += mr {
				kern.indirectA(&ic.dwT[t0*np+f0], uintptr(np*4), &ic.xpad[0], &ic.taps[t0], &ic.pos[pc], bpan, uint64(kb), 1)
			}
		}
	}
}
