package nn

import (
	"fmt"
	"math"

	"fedmp/internal/tensor"
)

// ReLU applies max(0, x) element-wise. NaN inputs map to 0, as x > 0 is
// false for them.
type ReLU struct {
	name  string
	size  float64
	y, dx *tensor.Tensor // reused output buffers
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// FLOPs implements Layer. Element-wise cost is charged as one op per
// element of the most recent forward, which is negligible next to the
// convolutions but kept for completeness.
func (r *ReLU) FLOPs() float64 { return r.size }

// Forward implements Layer. The gate is computed on the bit pattern, so the
// loop has no data-dependent branch: with i the int32 view of x, x > 0 holds
// exactly for 0 < i ≤ 0x7F800000 (+Inf); −i has its sign bit set for i > 0
// (and for −0, which the second term rejects), i − 0x7F800001 has it set up
// to +Inf but not for the positive NaNs above it, and it wraps to a clear
// sign bit for every negative i below −0x7FFFFF.
//
//fedmp:allocfree
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := ensure(r.y, x.Shape...) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	r.y = y
	out := y.Data[:len(x.Data)]
	for j, v := range x.Data {
		i := int32(math.Float32bits(v))
		keep := uint32((-i & (i - 0x7F800001)) >> 31)
		out[j] = math.Float32frombits(uint32(i) & keep)
	}
	if x.Shape[0] > 0 {
		r.size = float64(len(x.Data)) / float64(x.Shape[0])
	}
	return y
}

// Backward implements Layer. The gate is read back from the layer's own
// output — y is +0 where the input was not positive and a positive value
// (possibly +Inf, never NaN or −0) where it was — so no mask is stored: dx
// keeps dy's bits where y's bits are non-zero.
//
//fedmp:allocfree
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := ensure(r.dx, dy.Shape...) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	r.dx = dx
	out := dx.Data[:len(dy.Data)]
	y := r.y.Data[:len(dy.Data)]
	for j, v := range dy.Data {
		b := int32(math.Float32bits(y[j]))
		out[j] = math.Float32frombits(math.Float32bits(v) & uint32((b|-b)>>31))
	}
	return dx
}

// MaxPool2D performs non-overlapping max pooling with a square window over
// NCHW inputs. Window size equals stride (the only configuration the model
// zoo uses).
type MaxPool2D struct {
	name        string
	Window      int
	C, InH, InW int
	argmax      []int32 // flat input index of each output's max
	inShape     []int
	y, dx       *tensor.Tensor // reused output buffers
}

// NewMaxPool2D constructs a pooling layer for inputs of [C, inH, inW].
// inH and inW must be divisible by window.
func NewMaxPool2D(name string, c, inH, inW, window int) *MaxPool2D {
	if window <= 0 || inH%window != 0 || inW%window != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D %q window %d does not divide %dx%d", name, window, inH, inW))
	}
	return &MaxPool2D{name: name, Window: window, C: c, InH: inH, InW: inW}
}

// OutShape returns the per-sample output shape.
func (m *MaxPool2D) OutShape() []int {
	return []int{m.C, m.InH / m.Window, m.InW / m.Window}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.name }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// FLOPs implements Layer: one comparison per input element.
func (m *MaxPool2D) FLOPs() float64 { return float64(m.C * m.InH * m.InW) }

// Forward implements Layer. Ties keep the first maximum in window scan order
// (row by row); a NaN wins only from the window's first position, since no
// later element compares greater than it and it compares greater than none.
//
//fedmp:allocfree
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != m.C || x.Shape[2] != m.InH || x.Shape[3] != m.InW {
		panic(fmt.Sprintf("nn: MaxPool2D %q got input %v, want [N %d %d %d]", m.name, x.Shape, m.C, m.InH, m.InW))
	}
	n := x.Shape[0]
	outH, outW := m.InH/m.Window, m.InW/m.Window
	y := ensure(m.y, n, m.C, outH, outW) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	m.y = y
	m.argmax = grow(m.argmax, len(y.Data)) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	m.inShape = x.Shape
	planeIn := m.InH * m.InW
	planeOut := outH * outW
	for p := 0; p < n*m.C; p++ {
		in := x.Data[p*planeIn : (p+1)*planeIn]
		out := y.Data[p*planeOut : (p+1)*planeOut]
		arg := m.argmax[p*planeOut : (p+1)*planeOut]
		if m.Window == 2 {
			maxPool2x2(out, arg, in, p*planeIn, m.InW, outH, outW)
			continue
		}
		for oh := 0; oh < outH; oh++ {
			for ow := 0; ow < outW; ow++ {
				best := float32(0)
				bi := -1
				for kh := 0; kh < m.Window; kh++ {
					rowOff := (oh*m.Window + kh) * m.InW
					for kw := 0; kw < m.Window; kw++ {
						idx := rowOff + ow*m.Window + kw
						if bi < 0 || in[idx] > best {
							best, bi = in[idx], idx
						}
					}
				}
				out[oh*outW+ow] = best
				arg[oh*outW+ow] = int32(p*planeIn + bi)
			}
		}
	}
	return y
}

// maxPool2x2 pools one plane with a 2×2 window: the four candidates are
// compared in the general loop's scan order (top-left, top-right, bottom-left,
// bottom-right) with the same strict >, so the value and the recorded argmax
// (base + offset within the plane) are the ones that loop would produce. The
// outcome of each compare is close to a coin flip and a mispredicted branch
// costs more than the whole window, so only the winning index is carried
// forward, moved by a mask built from the compare instead of by a jump.
//
//fedmp:allocfree
func maxPool2x2(out []float32, arg []int32, in []float32, base, inW, outH, outW int) {
	for oh := 0; oh < outH; oh++ {
		o := out[oh*outW:][:outW]
		a := arg[oh*outW:][:outW]
		for ow := range o {
			i0 := 2*oh*inW + 2*ow
			bi := i0 + b2i(in[i0+1] > in[i0])
			bi += -b2i(in[i0+inW] > in[bi]) & (i0 + inW - bi)
			bi += -b2i(in[i0+inW+1] > in[bi]) & (i0 + inW + 1 - bi)
			o[ow] = in[bi]
			a[ow] = int32(base + bi)
		}
	}
}

// b2i is 1 when b holds and 0 otherwise; the compiler lowers it to a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Backward implements Layer.
//
//fedmp:allocfree
func (m *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := ensure(m.dx, m.inShape...) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	m.dx = dx
	dx.Zero() // scatter-add below
	for oi, v := range dy.Data {
		dx.Data[m.argmax[oi]] += v
	}
	return dx
}

// GlobalAvgPool averages each channel plane to a single value, mapping
// [N, C, H, W] to [N, C]. Used as the head of the residual network.
type GlobalAvgPool struct {
	name    string
	C, H, W int
	n       int
	y, dx   *tensor.Tensor // reused output buffers
}

// NewGlobalAvgPool constructs a global average pooling layer for inputs of
// [C, H, W].
func NewGlobalAvgPool(name string, c, h, w int) *GlobalAvgPool {
	if c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("nn: GlobalAvgPool %q invalid dims %d,%d,%d", name, c, h, w))
	}
	return &GlobalAvgPool{name: name, C: c, H: h, W: w}
}

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.name }

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// FLOPs implements Layer.
func (g *GlobalAvgPool) FLOPs() float64 { return float64(g.C * g.H * g.W) }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != g.C || x.Shape[2] != g.H || x.Shape[3] != g.W {
		panic(fmt.Sprintf("nn: GlobalAvgPool %q got input %v, want [N %d %d %d]", g.name, x.Shape, g.C, g.H, g.W))
	}
	g.n = x.Shape[0]
	plane := g.H * g.W
	y := ensure(g.y, g.n, g.C)
	g.y = y
	inv := 1 / float32(plane)
	for i := 0; i < g.n; i++ {
		for c := 0; c < g.C; c++ {
			src := x.Data[(i*g.C+c)*plane : (i*g.C+c+1)*plane]
			var s float32
			for _, v := range src {
				s += v
			}
			y.Data[i*g.C+c] = s * inv
		}
	}
	return y
}

// Backward implements Layer.
//
//fedmp:allocfree
func (g *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	plane := g.H * g.W
	dx := ensure(g.dx, g.n, g.C, g.H, g.W) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	g.dx = dx
	inv := 1 / float32(plane)
	for i := 0; i < g.n; i++ {
		for c := 0; c < g.C; c++ {
			v := dy.Data[i*g.C+c] * inv
			dst := dx.Data[(i*g.C+c)*plane : (i*g.C+c+1)*plane]
			for j := range dst {
				dst[j] = v
			}
		}
	}
	return dx
}

// Flatten reshapes [N, C, H, W] (or any higher-rank batch) to [N, D]. It is
// a pure view change; D is fixed at construction so the layer can validate
// its inputs and report its interface width to the pruning planner.
type Flatten struct {
	name    string
	D       int
	inShape []int
	y, dx   *tensor.Tensor // reused view headers (share Data with x / dy)
}

// NewFlatten constructs a flatten layer whose per-sample input has d
// elements.
func NewFlatten(name string, d int) *Flatten {
	if d <= 0 {
		panic(fmt.Sprintf("nn: Flatten %q with non-positive width %d", name, d))
	}
	return &Flatten{name: name, D: d}
}

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// FLOPs implements Layer.
func (f *Flatten) FLOPs() float64 { return 0 }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Shape[0]
	if x.Size() != n*f.D {
		panic(fmt.Sprintf("nn: Flatten %q got input %v, want %d per sample", f.name, x.Shape, f.D))
	}
	f.inShape = x.Shape
	f.y = view(f.y, x.Data, n, f.D)
	return f.y
}

// Backward implements Layer.
func (f *Flatten) Backward(dy *tensor.Tensor) *tensor.Tensor {
	f.dx = view(f.dx, dy.Data, f.inShape...)
	return f.dx
}
