package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window.
// All convolutions in this repository are square-strided with symmetric
// zero padding.
type ConvGeom struct {
	InC, InH, InW int // input channels and spatial extent
	OutC          int // output channels (ignored by pooling)
	KH, KW        int // kernel extent
	Stride        int
	Pad           int
}

// OutH returns the output height implied by the geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width implied by the geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// Validate panics if the geometry is degenerate (non-positive dimensions or
// an empty output plane).
func (g ConvGeom) Validate() {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.KH <= 0 || g.KW <= 0 || g.Stride <= 0 || g.Pad < 0 {
		panic(fmt.Sprintf("tensor: invalid conv geometry %+v", g))
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		panic(fmt.Sprintf("tensor: conv geometry %+v yields empty output %dx%d", g, g.OutH(), g.OutW()))
	}
}

// validRange returns the output positions [lo, hi) along one axis whose
// input position o*Stride - Pad + k lies inside [0, in); outside it the
// window reads zero padding.
func (g ConvGeom) validRange(k, in, out int) (lo, hi int) {
	lo, hi = g.Pad-k, in+g.Pad-k
	if s := g.Stride; s > 1 {
		lo, hi = (lo+s-1)/s, (hi+s-1)/s // truncation leaves negatives ≤ 0, clamped next
	}
	lo = min(max(lo, 0), out)
	return lo, min(max(hi, lo), out)
}

// Im2Col lowers one image x (layout [C,H,W] flattened) into a column matrix
// of shape [C*KH*KW, OutH*OutW] written into cols. Convolution then becomes
// a single matrix multiplication of the [OutC, C*KH*KW] kernel matrix with
// the column matrix.
//
// cols must have length C*KH*KW*OutH*OutW; it is fully overwritten. Work is
// done on row segments, not elements: each output row is zero padding around
// one run copied (stride 1) or gathered (stride > 1) from one input row, and
// when output rows are as wide as input rows at stride 1 the runs of all
// valid rows are adjacent in both, so one copy moves them together.
//
//fedmp:allocfree
func Im2Col(x []float32, g ConvGeom, cols []float32) {
	outH, outW := g.OutH(), g.OutW()
	outArea := outH * outW
	if len(cols) != g.InC*g.KH*g.KW*outArea {
		panic(fmt.Sprintf("tensor: Im2Col cols length %d, want %d", len(cols), g.InC*g.KH*g.KW*outArea))
	}
	if len(x) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: Im2Col input length %d, want %d", len(x), g.InC*g.InH*g.InW))
	}
	adjacent := g.Stride == 1 && outW == g.InW
	row := 0
	for c := 0; c < g.InC; c++ {
		plane := x[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for kh := 0; kh < g.KH; kh++ {
			ohLo, ohHi := g.validRange(kh, g.InH, outH)
			for kw := 0; kw < g.KW; kw++ {
				lo, hi := g.validRange(kw, g.InW, outW)
				dst := cols[row*outArea : (row+1)*outArea]
				row++
				if lo == hi || ohLo == ohHi { // the tap only ever sees padding
					clear(dst)
					continue
				}
				// Valid positions span [q0, q1); between the runs of two
				// consecutive rows lie gap padding positions.
				q0, q1 := ohLo*outW+lo, (ohHi-1)*outW+hi
				gap := outW - hi + lo
				clear(dst[:q0])
				clear(dst[q1:])
				if adjacent {
					// dst[q] = plane[q+off] over every valid row at once;
					// the gaps it drags along are zeroed below.
					copy(dst[q0:q1], plane[q0+(kh-g.Pad)*g.InW+kw-g.Pad:])
				} else {
					for oh := ohLo; oh < ohHi; oh++ {
						seg := dst[oh*outW+lo : oh*outW+hi]
						src := plane[(oh*g.Stride-g.Pad+kh)*g.InW:][:g.InW]
						if g.Stride == 1 {
							copy(seg, src[lo-g.Pad+kw:])
						} else {
							for i := range seg {
								seg[i] = src[(lo+i)*g.Stride-g.Pad+kw]
							}
						}
					}
				}
				if gap > 0 {
					for q := ohLo*outW + hi; q < q1; q += outW {
						for j := q; j < q+gap; j++ { // too short for a clear call
							dst[j] = 0
						}
					}
				}
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatters (accumulates) the column
// matrix cols back into the image gradient dx, which must be zeroed by the
// caller beforehand if a fresh gradient is wanted. Rows are visited in
// Im2Col's order, so every dx element receives its contributions in one
// fixed sequence.
//
//fedmp:allocfree
func Col2Im(cols []float32, g ConvGeom, dx []float32) {
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
			ohLo, ohHi := g.validRange(kh, g.InH, outH)
			for kw := 0; kw < g.KW; kw++ {
				lo, hi := g.validRange(kw, g.InW, outW)
				src := cols[row*outArea : (row+1)*outArea]
				row++
				for oh := ohLo; oh < ohHi && lo < hi; oh++ {
					dst := plane[(oh*g.Stride-g.Pad+kh)*g.InW:][:g.InW]
					seg := src[oh*outW+lo : oh*outW+hi]
					if g.Stride == 1 {
						d := dst[lo-g.Pad+kw:][:len(seg)]
						for i, v := range seg {
							d[i] += v
						}
					} else {
						for i, v := range seg {
							dst[(lo+i)*g.Stride-g.Pad+kw] += v
						}
					}
				}
			}
		}
	}
}
