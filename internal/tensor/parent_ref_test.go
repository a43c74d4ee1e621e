package tensor

import "fmt"

// Reference copies of the code this package ran before the convolution data
// path was rebuilt: the per-element Im2Col and Col2Im, the per-element packA
// and packB, and the gemmBlocked driver that packed both operands per call.
// They are kept verbatim (renamed with a ref prefix, lint hatches dropped) so
// the differential tests in diff_test.go can demand bitwise equality between
// the old and the new data path. They are test-only: nothing outside _test.go
// files may call them.

func refGemmBlocked(kern *gemmKernel, c, a, b []float32, aT, bT bool, m, k, n, rlo, rhi int, accumulate bool) {
	mr, nr := kern.mr, kern.nr
	nc := kern.nc
	if nc > n {
		nc = roundUp(n, nr)
	}
	bbuf := Scratch.Get(kcGEMM * nc)
	abuf := Scratch.Get(kern.mc * kcGEMM)
	defer Scratch.Put(abuf)
	defer Scratch.Put(bbuf)
	// Edge tiles are computed full-size (panels are zero-padded) into a
	// pooled scratch tile and merged; it needs no clearing because the
	// kernel overwrites the mr·nr region it uses before mergeTile reads it.
	// (Pooled rather than a stack array: its address crosses the indirect
	// kern.asm call, which would force a heap allocation per GEMM call.)
	var edge []float32
	if kern.asm != nil {
		ebuf := Scratch.Get(mrMax * nrMax)
		defer Scratch.Put(ebuf)
		edge = ebuf.Data
	}

	for jc := 0; jc < n; jc += nc {
		nb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kcGEMM {
			kb := min(kcGEMM, k-pc)
			refPackB(bbuf.Data, b, bT, k, n, pc, kb, jc, nb, nr)
			acc := accumulate || pc > 0
			for ic := rlo; ic < rhi; ic += kern.mc {
				mb := min(kern.mc, rhi-ic)
				refPackA(abuf.Data, a, aT, m, k, ic, mb, pc, kb, mr)
				for jr := 0; jr < nb; jr += nr {
					bp := bbuf.Data[(jr/nr)*kb*nr:]
					jn := min(nr, nb-jr)
					for ir := 0; ir < mb; ir += mr {
						ap := abuf.Data[(ir/mr)*kb*mr:]
						im := min(mr, mb-ir)
						cc := c[(ic+ir)*n+jc+jr:]
						switch {
						case kern.asm == nil:
							if kern.fused {
								microTileFMA(cc, n, ap, bp, kb, acc, im, jn)
							} else {
								microTileGo(cc, n, ap, bp, kb, acc, im, jn)
							}
						case im == mr && jn == nr:
							kern.asm(&cc[0], uintptr(n*4), &ap[0], &bp[0], uint64(kb), boolToUint64(acc))
						default:
							kern.asm(&edge[0], uintptr(nr*4), &ap[0], &bp[0], uint64(kb), 0)
							mergeTile(cc, n, edge, nr, im, jn, acc)
						}
					}
				}
			}
		}
	}
}

func refPackA(dst, a []float32, aT bool, m, k, rlo, mb, p0, kb, mr int) {
	for t := 0; t*mr < mb; t++ {
		panel := dst[t*kb*mr : (t+1)*kb*mr]
		rows := min(mr, mb-t*mr)
		base := rlo + t*mr
		if aT {
			// A stored [k,m]: column p of the block is contiguous.
			for p := 0; p < kb; p++ {
				src := a[(p0+p)*m+base : (p0+p)*m+base+rows]
				d := panel[p*mr : p*mr+mr]
				copy(d, src)
				for r := rows; r < mr; r++ {
					d[r] = 0
				}
			}
		} else {
			for r := 0; r < mr; r++ {
				if r >= rows {
					for p := 0; p < kb; p++ {
						panel[p*mr+r] = 0
					}
					continue
				}
				src := a[(base+r)*k+p0 : (base+r)*k+p0+kb]
				for p, v := range src {
					panel[p*mr+r] = v
				}
			}
		}
	}
}

func refPackB(dst, b []float32, bT bool, k, n, p0, kb, jlo, nb, nr int) {
	for u := 0; u*nr < nb; u++ {
		panel := dst[u*kb*nr : (u+1)*kb*nr]
		cols := min(nr, nb-u*nr)
		base := jlo + u*nr
		if bT {
			// B stored [n,k]: row j of storage is logical column j.
			for j := 0; j < nr; j++ {
				if j >= cols {
					for p := 0; p < kb; p++ {
						panel[p*nr+j] = 0
					}
					continue
				}
				src := b[(base+j)*k+p0 : (base+j)*k+p0+kb]
				for p, v := range src {
					panel[p*nr+j] = v
				}
			}
		} else {
			for p := 0; p < kb; p++ {
				src := b[(p0+p)*n+base : (p0+p)*n+base+cols]
				d := panel[p*nr : p*nr+nr]
				copy(d, src)
				for j := cols; j < nr; j++ {
					d[j] = 0
				}
			}
		}
	}
}

func refIm2Col(x []float32, g ConvGeom, cols []float32) {
	outH, outW := g.OutH(), g.OutW()
	outArea := outH * outW
	if len(cols) != g.InC*g.KH*g.KW*outArea {
		panic(fmt.Sprintf("tensor: Im2Col cols length %d, want %d", len(cols), g.InC*g.KH*g.KW*outArea))
	}
	if len(x) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col input length %d, want %d", len(x), g.InC*g.InH*g.InW))
	}
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := x[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				dst := cols[row*outArea : (row+1)*outArea]
				di := 0
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.Stride - g.Pad + kh
					if ih < 0 || ih >= g.InH {
						for ow := 0; ow < outW; ow++ {
							dst[di] = 0
							di++
						}
						continue
					}
					src := plane[ih*g.InW : (ih+1)*g.InW]
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.Stride - g.Pad + kw
						if iw < 0 || iw >= g.InW {
							dst[di] = 0
						} else {
							dst[di] = src[iw]
						}
						di++
					}
				}
				row++
			}
		}
	}
}

func refCol2Im(cols []float32, g ConvGeom, dx []float32) {
	outH, outW := g.OutH(), g.OutW()
	outArea := outH * outW
	if len(cols) != g.InC*g.KH*g.KW*outArea {
		panic(fmt.Sprintf("tensor: Col2Im cols length %d, want %d", len(cols), g.InC*g.KH*g.KW*outArea))
	}
	if len(dx) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Col2Im output length %d, want %d", len(dx), g.InC*g.InH*g.InW))
	}
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := dx[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				src := cols[row*outArea : (row+1)*outArea]
				si := 0
				for oh := 0; oh < outH; oh++ {
					ih := oh*g.Stride - g.Pad + kh
					if ih < 0 || ih >= g.InH {
						si += outW
						continue
					}
					dst := plane[ih*g.InW : (ih+1)*g.InW]
					for ow := 0; ow < outW; ow++ {
						iw := ow*g.Stride - g.Pad + kw
						if iw >= 0 && iw < g.InW {
							dst[iw] += src[si]
						}
						si++
					}
				}
				row++
			}
		}
	}
}
