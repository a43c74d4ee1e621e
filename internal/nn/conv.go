package nn

import (
	"fmt"
	"math/rand"

	"fedmp/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs, one matrix product triple per
// sample. Weights have shape [outC, inC, KH, KW]; each output filter occupies
// one contiguous block of inC·KH·KW values, which is the slice the l1-norm
// filter importance score is computed over.
//
// The products are defined by lowering: cols_i = Im2Col(x_i), then
// y_i = W·cols_i, dW += dy_i·cols_iᵀ and dcols_i = Wᵀ·dy_i through
// tensor.GEMMPacked, W and Wᵀ packed once per call and the column matrix
// existing for one sample at a time (Backward lowers the cached input again
// rather than keep a batch of them). Where tensor.IndirectConv serves the
// geometry on the active tier — stride 1, whole 8-float runs per output row,
// a product on the blocked side — no column matrix is built or packed: the two
// products that read cols_i multiply out of a zero-bordered copy of x_i, and
// Wᵀ·dy_i is staged six taps at a time and added straight into a
// zero-bordered dx_i, with neither the column gradient nor Col2Im. There dW
// is copied transposed into the IndirectConv once per batch, each sample's
// dy_i·cols_iᵀ is added into that copy by the kernel, and the batch's sum is
// copied back once. Each product keeps the per-sample (m, k, n) either way,
// and the bits of every result (DESIGN.md §2a).
type Conv2D struct {
	name string
	Geom tensor.ConvGeom
	W, B *Param

	x     *tensor.Tensor // cached input batch
	y, dx *tensor.Tensor // cached output / input gradient

	// grow-only per-sample workspaces
	wA, wtA tensor.PackedA // W as [outC, rows]; Wᵀ as [rows, outC]

	ind tensor.IndirectConv // the padded sample, the padded dx_i and the offset tables
	dyT tensor.PackedB      // dy_iᵀ as the streamed operand of the indirect dW

	// what only the lowered products need
	cols  []float32      // [rows, outArea] columns
	colsB tensor.PackedB // cols_i (forward) or cols_iᵀ (dW)
	dyA   tensor.PackedA // dy_i as the left operand of dW
	dcols []float32      // [rows, outArea] column gradient
	dyB   tensor.PackedB // dy_i for dcols

	// lowered keeps the layer on the lowered products where ind would serve:
	// the differential tests and benchmarks hold the two side by side with
	// it. Nothing else sets it; the path follows from geometry and tier.
	lowered bool
}

// NewConv2D constructs a convolution layer with He-initialised kernels and
// zero biases. geom.OutC is the number of filters.
func NewConv2D(name string, geom tensor.ConvGeom, rng *rand.Rand) *Conv2D {
	geom.Validate()
	if geom.OutC <= 0 {
		panic(fmt.Sprintf("nn: Conv2D %q needs OutC > 0", name))
	}
	fanIn := geom.InC * geom.KH * geom.KW
	return &Conv2D{
		name: name,
		Geom: geom,
		W:    NewParam(name+"/W", tensor.HeInit(rng, fanIn, geom.OutC, geom.InC, geom.KH, geom.KW)),
		B:    NewParam(name+"/b", tensor.New(geom.OutC)),
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// FLOPs implements Layer: 2·outC·outH·outW·inC·KH·KW per sample.
func (c *Conv2D) FLOPs() float64 {
	g := c.Geom
	return 2 * float64(g.OutC) * float64(g.OutH()) * float64(g.OutW()) *
		float64(g.InC) * float64(g.KH) * float64(g.KW)
}

// resize implements resizer: new input channels, plane and filter count;
// kernel, stride and padding stay. The workspaces follow the geometry on the
// next call (plan, ensure), the padded sample included: IndirectConv.Plan
// clears it when the geometry changes.
func (c *Conv2D) resize(in dims, widths []int) (dims, []int, bool) {
	g := c.Geom
	g.InC, g.InH, g.InW, g.OutC = in[0], in[1], in[2], widths[0]
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 || g.OutC <= 0 || g.OutH() <= 0 || g.OutW() <= 0 {
		return in, widths, false
	}
	c.Geom = g
	c.W.reshape(g.OutC, g.InC, g.KH, g.KW)
	c.B.reshape(g.OutC)
	return dims{g.OutC, g.OutH(), g.OutW()}, widths[1:], true
}

// OutShape returns the per-sample output shape [outC, outH, outW].
func (c *Conv2D) OutShape() []int {
	return []int{c.Geom.OutC, c.Geom.OutH(), c.Geom.OutW()}
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.Geom
	if len(x.Shape) != 4 || x.Shape[1] != g.InC || x.Shape[2] != g.InH || x.Shape[3] != g.InW {
		panic(fmt.Sprintf("nn: Conv2D %q got input %v, want [N %d %d %d]",
			c.name, x.Shape, g.InC, g.InH, g.InW))
	}
	n := x.Shape[0]
	rows := g.InC * g.KH * g.KW
	outArea := g.OutH() * g.OutW()
	inSize := g.InC * g.InH * g.InW
	c.x = x
	y := ensure(c.y, n, g.OutC, g.OutH(), g.OutW()) // allocates only when the batch outgrows the buffer
	c.y = y
	c.wA.Pack(c.W.W.Data, false, g.OutC, rows, outArea)
	indirect := c.plan()
	for i := 0; i < n; i++ {
		xi := x.Data[i*inSize : (i+1)*inSize]
		out := y.Data[i*g.OutC*outArea : (i+1)*g.OutC*outArea]
		if indirect {
			c.ind.Load(xi)
			c.ind.Mul(out, &c.wA)
		} else {
			tensor.Im2Col(xi, g, c.cols)
			c.colsB.Pack(c.cols, false, g.OutC, rows, outArea)
			tensor.GEMMPacked(out, &c.wA, &c.colsB, false)
		}
		tensor.AddBias(out, c.B.W.Data, outArea)
	}
	return y
}

// plan reports whether this call's products run indirectly, and grows the
// column matrix when they lower.
func (c *Conv2D) plan() bool {
	g := c.Geom
	if !c.lowered && c.ind.Plan(g) {
		return true
	}
	c.cols = grow(c.cols, g.InC*g.KH*g.KW*g.OutH()*g.OutW()) // allocates once per geometry
	return false
}

// Backward implements Layer.
func (c *Conv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	return c.backward(dy, true)
}

// BackwardParams implements paramsBackward: the parameter gradients of
// Backward without the input gradient (no Wᵀ·dy product, no Col2Im).
func (c *Conv2D) BackwardParams(dy *tensor.Tensor) { c.backward(dy, false) }

func (c *Conv2D) backward(dy *tensor.Tensor, needDX bool) *tensor.Tensor {
	g := c.Geom
	n := dy.Shape[0]
	rows := g.InC * g.KH * g.KW
	outArea := g.OutH() * g.OutW()
	inSize := g.InC * g.InH * g.InW
	indirect := c.plan()
	var dx *tensor.Tensor
	if needDX {
		dx = ensure(c.dx, n, g.InC, g.InH, g.InW) // allocates only when the batch outgrows the buffer
		c.dx = dx
		c.wtA.Pack(c.W.W.Data, true, rows, g.OutC, outArea)
		if !indirect {
			dx.Zero()                             // Col2Im accumulates
			c.dcols = grow(c.dcols, rows*outArea) // allocates once per geometry
		}
	}
	dw := c.W.Grad.Data
	if indirect {
		c.ind.BeginGradW(dw)
	}
	for i := 0; i < n; i++ {
		xi := c.x.Data[i*inSize : (i+1)*inSize]
		dyi := dy.Data[i*g.OutC*outArea : (i+1)*g.OutC*outArea]
		// dW += dy_i · colsᵀ, one product per sample: a single product
		// over the batch would move the kc chunk boundaries of the
		// outArea·N-deep sum and with them the rounding.
		if indirect {
			c.ind.Load(xi)
			c.dyT.Pack(dyi, true, rows, outArea, g.OutC)
			c.ind.AddGradW(&c.dyT)
		} else {
			tensor.Im2Col(xi, g, c.cols)
			c.dyA.Pack(dyi, false, g.OutC, outArea, rows)
			c.colsB.Pack(c.cols, true, g.OutC, outArea, rows)
			tensor.GEMMPacked(dw, &c.dyA, &c.colsB, true)
		}
		// db += per-channel sums of dy_i.
		tensor.AddBiasGrad(c.B.Grad.Data, dyi, outArea)
		if !needDX {
			continue
		}
		dxi := dx.Data[i*inSize : (i+1)*inSize]
		if indirect {
			c.ind.GradX(dxi, dyi, &c.wtA)
		} else {
			// dcols = Wᵀ · dy_i, scattered back through col2im.
			c.dyB.Pack(dyi, false, rows, g.OutC, outArea)
			tensor.GEMMPacked(c.dcols, &c.wtA, &c.dyB, false)
			tensor.Col2Im(c.dcols, g, dxi)
		}
	}
	if indirect {
		c.ind.EndGradW(dw)
	}
	return dx
}
