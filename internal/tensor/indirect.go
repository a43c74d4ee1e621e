package tensor

import "fmt"

// Indirect convolution (Dukhan 2019, the QNNPACK/XNNPACK design): two of a
// convolution's three products multiply straight out of the input instead of
// out of a column matrix. Lowering (Im2Col + Pack + GEMMPacked) writes every
// input value K² times into cols and then copies cols into B panels, forward
// and again backward — InC·K²·outArea floats per sample each time, a cost
// pruning does not shrink. Here the sample is copied once into a zero-bordered
// [InC][InH+2Pad][InW+2Pad] scratch, and the micro-kernel finds the column
// matrix's element (tap, position) at
//
//	xpad[taps[tap] + pos[position]]
//	taps[(c,kh,kw)] = (c·Hp + kh)·Wp + kw     pos[(oh,ow)] = oh·Wp + ow
//
// (stride 1). Eight consecutive positions of one output row are eight
// consecutive floats, so with OutW a multiple of 8 each half of a 16-column
// B step is one vector load.
//
// No bit moves against the lowered products. Every element of y and dW is
// still one fused multiply-add chain per kc-deep chunk, depth ascending from
// +0, over the values the packed panels would have held — a padding tap reads
// a real zero from the border, as it read Im2Col's — and the chunk sum is
// stored or added once, chunks in order. Lowering stays the definition and
// serves whatever Plan declines.
//
// An IndirectConv is owned by one goroutine at a time.
type IndirectConv struct {
	g      ConvGeom    // the geometry Plan last answered for,
	kern   *gemmKernel // the tier it answered for,
	serves bool        // and the answer; when true the rest is laid out for it
	xpad   []float32   // the loaded sample inside its zero border
	// taps has one offset per row of the column matrix, then repeats of the
	// last up to a multiple of the tile height, so a tile of six always has
	// six rows to read; pos has one per output position.
	taps, pos []int
	// tile stages partial tiles of y and every tile of dWᵀ.
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
// AddGradW stand in for Im2Col and the two products that read the column
// matrix.
//
//fedmp:allocfree
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
	rows, outW := g.InC*g.KH*g.KW, g.OutW()
	ic.xpad = growF32(ic.xpad, g.InC*hp*wp) //fedmp:transitive-ok — grows once per geometry; steady state re-slices
	// Load writes the interior only: the border is zeroed here.
	clear(ic.xpad)
	ic.taps = growInts(ic.taps, roundUp(rows, kern.mr)) //fedmp:transitive-ok — grows once per geometry; steady state re-slices
	ic.pos = growInts(ic.pos, g.OutH()*outW)            //fedmp:transitive-ok — grows once per geometry; steady state re-slices
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
//
//fedmp:allocfree
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
//
//fedmp:allocfree
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
					apan := &ap[(ir/mr)*kb*mr]
					cc := y[(i0+ir)*n+j:]
					if im := mb - ir; im < mr {
						kern.indirectB(&ic.tile[0], uintptr(nr*4), apan, x0, x1, taps, uint64(kb), 0)
						mergeTile(cc, n, ic.tile[:], nr, im, nr, acc)
					} else {
						kern.indirectB(&cc[0], uintptr(n*4), apan, x0, x1, taps, uint64(kb), boolToUint64(acc))
					}
				}
			}
		}
	}
}

// AddGradW adds dy·colsᵀ for the loaded sample to dw [OutC, rows]. dyT is the
// sample's output gradient dy [OutC, outArea] packed transposed:
// Pack(dy, true, rows, outArea, OutC).
//
// The lowered product broadcasts dy and streams colsᵀ in 16-tap panels; a
// step of those is 16 strided floats here. So the roles swap: each tile is 6
// taps × 16 filters of dWᵀ, the taps broadcast from the sample and dyᵀ
// streamed from its panels, and a finished tile is added transposed into dw.
// Per element nothing changed: the chain runs over the same positions in the
// same chunks, dy's value is still the FMA's first multiplicand (see
// gemmKernel6x16fmaIndA), and the chunk sum is the first operand of the one
// add, as in the kernels' accumulate step and in mergeTile.
//
//fedmp:allocfree
func (ic *IndirectConv) AddGradW(dw []float32, dyT *PackedB) {
	g, kern := ic.g, ic.kern
	outC, rows, outArea := g.OutC, g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	if !ic.serves || dyT.kern != kern || dyT.m != rows || dyT.k != outArea || dyT.n != outC {
		panic(fmt.Sprintf("tensor: IndirectConv.AddGradW gradient packed for [%d %d %d], want [%d %d %d] on a tier Plan accepted", dyT.m, dyT.k, dyT.n, rows, outArea, outC))
	}
	if len(dw) != outC*rows {
		panic(fmt.Sprintf("tensor: IndirectConv.AddGradW output length %d, want %d×%d", len(dw), outC, rows))
	}
	mr, nr := kern.mr, kern.nr
	np := roundUp(outC, nr)
	_ = ic.xpad[ic.taps[rows-1]+ic.pos[outArea-1]] // as in Mul
	for pc := 0; pc < outArea; pc += kcGEMM {
		kb := min(kcGEMM, outArea-pc)
		for f0 := 0; f0 < outC; f0 += nr {
			bpan := &dyT.buf[pc*np+(f0/nr)*kb*nr]
			nf := min(nr, outC-f0)
			for t0 := 0; t0 < rows; t0 += mr {
				kern.indirectA(&ic.tile[0], &ic.xpad[0], &ic.taps[t0], &ic.pos[pc], bpan, uint64(kb))
				nt := min(mr, rows-t0)
				for f := 0; f < nf; f++ {
					row := dw[(f0+f)*rows+t0:][:nt]
					for t := range row {
						row[t] = ic.tile[t*nr+f] + row[t]
					}
				}
			}
		}
	}
}
