package nn

import (
	"fmt"

	"fedmp/internal/tensor"
)

// Residual wraps a shape-preserving chain of inner layers with an identity
// skip connection: y = body(x) + x. The model zoo uses it for the
// ResNet-style classifier; structured pruning may shrink channels *inside*
// the body, but the body's output width must stay equal to its input width
// so the skip addition remains valid (the standard constraint for pruning
// residual networks).
type Residual struct {
	name string
	Body []Layer

	params []*Param
	y, dx  *tensor.Tensor // reused output buffers
}

// NewResidual constructs a residual block around body.
func NewResidual(name string, body ...Layer) *Residual {
	if len(body) == 0 {
		panic(fmt.Sprintf("nn: Residual %q needs a non-empty body", name))
	}
	r := &Residual{name: name, Body: body}
	for _, l := range body {
		r.params = append(r.params, l.Params()...)
	}
	return r
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Params implements Layer.
func (r *Residual) Params() []*Param { return r.params }

// FLOPs implements Layer: the body plus one add per output element.
func (r *Residual) FLOPs() float64 {
	var f float64
	for _, l := range r.Body {
		f += l.FLOPs()
	}
	return f
}

// resize implements resizer: the body takes the widths after the block's
// own and must map the input geometry back onto itself.
func (r *Residual) resize(in dims, widths []int) (dims, []int, bool) {
	out, rest, ok := resizeChain(r.Body, in, widths[1:])
	return in, rest, ok && out == in
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := x
	for _, l := range r.Body {
		y = l.Forward(y, train)
	}
	if !tensor.SameShape(x, y) {
		panic(fmt.Sprintf("nn: Residual %q body maps %v to %v; skip requires equal shapes",
			r.name, x.Shape, y.Shape))
	}
	out := ensure(r.y, y.Shape...)
	r.y = out
	for i, v := range y.Data {
		out.Data[i] = v + x.Data[i]
	}
	return out
}

// Backward implements Layer.
func (r *Residual) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := dy
	for i := len(r.Body) - 1; i >= 0; i-- {
		dx = r.Body[i].Backward(dx)
	}
	out := ensure(r.dx, dx.Shape...)
	r.dx = out
	for i, v := range dx.Data {
		out.Data[i] = v + dy.Data[i]
	}
	return out
}
