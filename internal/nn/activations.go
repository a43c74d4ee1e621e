package nn

import (
	"fmt"

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

// resize implements resizer: any input; the FLOP count returns to a new
// layer's 0 until the next forward.
func (r *ReLU) resize(in dims, widths []int) (dims, []int, bool) {
	r.size = 0
	return in, widths[1:], true
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := ensure(r.y, x.Shape...) // allocates only when the batch outgrows the buffer
	r.y = y
	tensor.ReLU(y.Data, x.Data)
	if x.Shape[0] > 0 {
		r.size = float64(len(x.Data)) / float64(x.Shape[0])
	}
	return y
}

// Backward implements Layer. The gate is read back from the layer's own
// output (tensor.ReLUGrad), so no mask is stored.
func (r *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := ensure(r.dx, dy.Shape...) // allocates only when the batch outgrows the buffer
	r.dx = dx
	tensor.ReLUGrad(dx.Data, dy.Data, r.y.Data)
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

// resize implements resizer: any input the window divides.
func (m *MaxPool2D) resize(in dims, widths []int) (dims, []int, bool) {
	if in[0] <= 0 || in[1]%m.Window != 0 || in[2]%m.Window != 0 {
		return in, widths, false
	}
	m.C, m.InH, m.InW = in[0], in[1], in[2]
	return dims{m.C, m.InH / m.Window, m.InW / m.Window}, widths[1:], true
}

// Forward implements Layer. Ties keep the first maximum in window scan order
// (row by row); a NaN wins only from the window's first position, since no
// later element compares greater than it and it compares greater than none.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != m.C || x.Shape[2] != m.InH || x.Shape[3] != m.InW {
		panic(fmt.Sprintf("nn: MaxPool2D %q got input %v, want [N %d %d %d]", m.name, x.Shape, m.C, m.InH, m.InW))
	}
	n := x.Shape[0]
	outH, outW := m.InH/m.Window, m.InW/m.Window
	y := ensure(m.y, n, m.C, outH, outW) // allocates only when the batch outgrows the buffer
	m.y = y
	m.argmax = grow(m.argmax, len(y.Data)) // allocates only when the batch outgrows the buffer
	m.inShape = x.Shape
	if m.Window == 2 {
		tensor.MaxPool2x2(y.Data, m.argmax, x.Data, n*m.C*outH, outW)
		return y
	}
	planeIn := m.InH * m.InW
	planeOut := outH * outW
	for p := 0; p < n*m.C; p++ {
		in := x.Data[p*planeIn : (p+1)*planeIn]
		out := y.Data[p*planeOut : (p+1)*planeOut]
		arg := m.argmax[p*planeOut : (p+1)*planeOut]
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

// Backward implements Layer. The windows do not overlap, so each input
// element receives at most one output's gradient.
func (m *MaxPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := ensure(m.dx, m.inShape...) // allocates only when the batch outgrows the buffer
	m.dx = dx
	if m.Window == 2 {
		outW := m.InW / 2
		tensor.MaxPool2x2Grad(dx.Data, dy.Data, m.argmax, len(dy.Data)/outW, outW)
		return dx
	}
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

// resize implements resizer: any input, one output per channel.
func (g *GlobalAvgPool) resize(in dims, widths []int) (dims, []int, bool) {
	g.C, g.H, g.W = in[0], in[1], in[2]
	return dims{g.C, 1, 1}, widths[1:], true
}

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
func (g *GlobalAvgPool) Backward(dy *tensor.Tensor) *tensor.Tensor {
	plane := g.H * g.W
	dx := ensure(g.dx, g.n, g.C, g.H, g.W) // allocates only when the batch outgrows the buffer
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

// resize implements resizer: any input, flattened.
func (f *Flatten) resize(in dims, widths []int) (dims, []int, bool) {
	f.D = in[0] * in[1] * in[2]
	return dims{f.D, 1, 1}, widths[1:], true
}

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
