package nn

import (
	"fmt"
	"math/rand"

	"fedmp/internal/tensor"
)

// Dropout zeroes each activation independently with probability Rate during
// training and scales survivors by 1/(1−Rate) (inverted dropout), so
// evaluation is the identity. The original AlexNet regularises its dense
// head this way; the layer is available for custom specs via
// zoo.KindDropout.
type Dropout struct {
	name  string
	Rate  float32
	rng   *rand.Rand
	mask  []float32
	y, dx *tensor.Tensor // reused output buffers
}

// NewDropout constructs a dropout layer with the given drop probability in
// [0, 1).
func NewDropout(name string, rate float32, rng *rand.Rand) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: Dropout %q rate %v outside [0,1)", name, rate))
	}
	return &Dropout{name: name, Rate: rate, rng: rng}
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// FLOPs implements Layer.
func (d *Dropout) FLOPs() float64 { return 0 }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.Rate == 0 {
		d.mask = nil
		return x
	}
	if len(d.mask) != len(x.Data) {
		d.mask = make([]float32, len(x.Data))
	}
	scale := 1 / (1 - d.Rate)
	y := ensure(d.y, x.Shape...)
	d.y = y
	for i, v := range x.Data {
		if d.rng.Float32() < d.Rate {
			d.mask[i] = 0
			y.Data[i] = 0
		} else {
			d.mask[i] = scale
			y.Data[i] = v * scale
		}
	}
	return y
}

// Backward implements Layer.
func (d *Dropout) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return dy
	}
	dx := ensure(d.dx, dy.Shape...)
	d.dx = dx
	for i, v := range dy.Data {
		dx.Data[i] = v * d.mask[i]
	}
	return dx
}

// AvgPool2D performs non-overlapping average pooling with a square window
// over NCHW inputs (window == stride), the counterpart to MaxPool2D.
type AvgPool2D struct {
	name        string
	Window      int
	C, InH, InW int
	n           int
	y, dx       *tensor.Tensor // reused output buffers
}

// NewAvgPool2D constructs an average-pooling layer for inputs of
// [C, inH, inW]; inH and inW must be divisible by window.
func NewAvgPool2D(name string, c, inH, inW, window int) *AvgPool2D {
	if window <= 0 || inH%window != 0 || inW%window != 0 {
		panic(fmt.Sprintf("nn: AvgPool2D %q window %d does not divide %dx%d", name, window, inH, inW))
	}
	return &AvgPool2D{name: name, Window: window, C: c, InH: inH, InW: inW}
}

// Name implements Layer.
func (a *AvgPool2D) Name() string { return a.name }

// Params implements Layer.
func (a *AvgPool2D) Params() []*Param { return nil }

// FLOPs implements Layer.
func (a *AvgPool2D) FLOPs() float64 { return float64(a.C * a.InH * a.InW) }

// resize implements resizer: any input the window divides.
func (a *AvgPool2D) resize(in dims, widths []int) (dims, []int, bool) {
	if in[0] <= 0 || in[1]%a.Window != 0 || in[2]%a.Window != 0 {
		return in, widths, false
	}
	a.C, a.InH, a.InW = in[0], in[1], in[2]
	return dims{a.C, a.InH / a.Window, a.InW / a.Window}, widths[1:], true
}

// Forward implements Layer.
func (a *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != a.C || x.Shape[2] != a.InH || x.Shape[3] != a.InW {
		panic(fmt.Sprintf("nn: AvgPool2D %q got input %v, want [N %d %d %d]", a.name, x.Shape, a.C, a.InH, a.InW))
	}
	a.n = x.Shape[0]
	outH, outW := a.InH/a.Window, a.InW/a.Window
	y := ensure(a.y, a.n, a.C, outH, outW)
	a.y = y
	inv := 1 / float32(a.Window*a.Window)
	planeIn := a.InH * a.InW
	planeOut := outH * outW
	for i := 0; i < a.n; i++ {
		for c := 0; c < a.C; c++ {
			in := x.Data[(i*a.C+c)*planeIn : (i*a.C+c+1)*planeIn]
			outBase := (i*a.C + c) * planeOut
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					var s float32
					for kh := 0; kh < a.Window; kh++ {
						rowOff := (oh*a.Window + kh) * a.InW
						for kw := 0; kw < a.Window; kw++ {
							s += in[rowOff+ow*a.Window+kw]
						}
					}
					y.Data[outBase+oh*outW+ow] = s * inv
				}
			}
		}
	}
	return y
}

// Backward implements Layer.
func (a *AvgPool2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	outH, outW := a.InH/a.Window, a.InW/a.Window
	dx := ensure(a.dx, a.n, a.C, a.InH, a.InW)
	a.dx = dx
	inv := 1 / float32(a.Window*a.Window)
	planeIn := a.InH * a.InW
	planeOut := outH * outW
	for i := 0; i < a.n; i++ {
		for c := 0; c < a.C; c++ {
			out := dy.Data[(i*a.C+c)*planeOut : (i*a.C+c+1)*planeOut]
			in := dx.Data[(i*a.C+c)*planeIn : (i*a.C+c+1)*planeIn]
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					v := out[oh*outW+ow] * inv
					for kh := 0; kh < a.Window; kh++ {
						rowOff := (oh*a.Window + kh) * a.InW
						for kw := 0; kw < a.Window; kw++ {
							in[rowOff+ow*a.Window+kw] = v
						}
					}
				}
			}
		}
	}
	return dx
}
