package nn

import (
	"fmt"
	"math/rand"

	"fedmp/internal/tensor"
)

// Dense is a fully connected layer computing y = x·Wᵀ + b for x of shape
// [N, in] and W of shape [out, in]. The [out, in] weight layout puts each
// output neuron's incoming weights in one contiguous row, which is the slice
// the structured-pruning importance score (sum of absolute incoming weights,
// §III-B of the paper) is computed over.
type Dense struct {
	name    string
	In, Out int
	W, B    *Param

	// SparseWeights routes the forward pass through the sparsity-aware
	// kernel that skips all-zero weight rows. The dense kernels are
	// branch-free, so this is opt-in: set it (e.g. via MarkSparseWeights)
	// only on models whose weights carry structured pruning-mask zeros.
	SparseWeights bool

	x  *tensor.Tensor // cached input for backward
	y  *tensor.Tensor // cached output, reused across steps
	dx *tensor.Tensor // cached input gradient, reused across steps
}

// NewDense constructs a dense layer with He-initialised weights and zero
// biases.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: Dense %q with non-positive dims %dx%d", name, in, out))
	}
	return &Dense{
		name: name, In: in, Out: out,
		W: NewParam(name+"/W", tensor.HeInit(rng, in, out, in)),
		B: NewParam(name+"/b", tensor.New(out)),
	}
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// FLOPs implements Layer: one multiply-add per weight.
func (d *Dense) FLOPs() float64 { return 2 * float64(d.In) * float64(d.Out) }

// resize implements resizer: a flat input of any width, widths[0] outputs.
// The sparse kernel is switched off, as on a new layer.
func (d *Dense) resize(in dims, widths []int) (dims, []int, bool) {
	if in[0] <= 0 || in[1] != 1 || in[2] != 1 || widths[0] <= 0 {
		return in, widths, false
	}
	d.In, d.Out, d.SparseWeights = in[0], widths[0], false
	d.W.reshape(d.Out, d.In)
	d.B.reshape(d.Out)
	return dims{d.Out, 1, 1}, widths[1:], true
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("nn: Dense %q got input %v, want [N %d]", d.name, x.Shape, d.In))
	}
	d.x = x
	n := x.Shape[0]
	y := ensure(d.y, n, d.Out) // allocates only when the batch outgrows the buffer
	d.y = y
	if d.SparseWeights {
		tensor.MatMulTBSparseInto(y, x, d.W.W, false)
	} else {
		tensor.MatMulTBInto(y, x, d.W.W, false) // gemm's one dispatch closure per parallel call
	}
	for i := 0; i < n; i++ {
		tensor.AddTo(y.Data[i*d.Out:(i+1)*d.Out], d.B.W.Data)
	}
	return y
}

// Backward implements Layer.
func (d *Dense) Backward(dy *tensor.Tensor) *tensor.Tensor {
	d.BackwardParams(dy)
	// dx[N,in] = dy[N,out]·W[out,in]
	dx := ensure(d.dx, dy.Shape[0], d.In) // allocates only when the batch outgrows the buffer
	d.dx = dx
	tensor.MatMulInto(dx, dy, d.W.W, false) // gemm's one dispatch closure per parallel call
	return dx
}

// BackwardParams implements paramsBackward: dW and db without dx.
func (d *Dense) BackwardParams(dy *tensor.Tensor) {
	// dW[out,in] += dyᵀ[out,N]·x[N,in]
	tensor.MatMulTAInto(d.W.Grad, dy, d.x, true) // gemm's one dispatch closure per parallel call
	// db += column sums of dy, rows ascending.
	tensor.AddRowSums(d.B.Grad.Data[:d.Out], dy.Data[:dy.Shape[0]*d.Out])
}
