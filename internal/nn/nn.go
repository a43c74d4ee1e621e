// Package nn implements the neural-network training engine the federated
// experiments run on: layers with hand-written forward/backward passes
// (dense, convolution, batch normalisation, pooling, LSTM, embedding), a
// softmax cross-entropy head, an SGD optimiser with momentum and weight
// decay, and utilities for reading and writing a network's parameters as
// flat tensors (the representation exchanged between parameter server and
// workers).
//
// The engine is CPU-only and single-threaded per model instance. Every
// worker in a simulation owns its own model instance, so no layer state is
// shared across goroutines.
package nn

import (
	"fmt"

	"fedmp/internal/tensor"
)

// ensure returns t re-shaped to the given shape when its backing array is
// large enough; otherwise it allocates a fresh tensor. Layers use it to
// recycle their output and workspace buffers across steps: once a layer has
// seen its largest batch, training and evaluation (including EvalChunked's
// short tail chunk) reuse every buffer and perform no heap allocation.
// Contents are unspecified after a re-shape; callers overwrite or zero them.
//
// Returned buffers are owned by the layer that ensured them: a layer's
// Forward output is valid until its next Forward call (callers that need the
// values longer must Clone), which is exactly the lifetime the train/eval
// loops rely on.
func ensure(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	if size := tensor.Prod(shape); t != nil && cap(t.Data) >= size {
		t.Data = t.Data[:size]
		t.Shape = append(t.Shape[:0], shape...)
		return t
	}
	return tensor.New(shape...)
}

// grow returns buf re-sliced to n elements, reallocating only when its
// capacity is too small — the slice counterpart of ensure.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// view re-points a cached header tensor at data with the given shape,
// allocating a header only on first use. Hot loops use it to slice
// sub-matrices out of batch tensors without allocating.
func view(t *tensor.Tensor, data []float32, shape ...int) *tensor.Tensor {
	if t == nil {
		t = &tensor.Tensor{}
	}
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = data
	return t
}

// Param is one learnable parameter tensor with its gradient accumulator.
// Layers expose their parameters through Params so optimisers, the pruning
// machinery and the parameter server can treat every model uniformly.
type Param struct {
	// Name identifies the parameter within its layer, e.g. "conv1/W".
	Name string
	// W holds the current value.
	W *tensor.Tensor
	// Grad accumulates ∂loss/∂W for the most recent backward pass.
	Grad *tensor.Tensor
	// Frozen marks non-learnable state that still travels with the model
	// (batch-normalisation running statistics). Optimisers skip frozen
	// parameters; parameter exchange, aggregation and pruning treat them
	// like any other tensor.
	Frozen bool
}

// NewParam allocates a parameter wrapping w with a zeroed gradient of the
// same shape.
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, Grad: tensor.New(w.Shape...)}
}

// NewFrozenParam allocates a non-learnable parameter (see Param.Frozen).
func NewFrozenParam(name string, w *tensor.Tensor) *Param {
	p := NewParam(name, w)
	p.Frozen = true
	return p
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is a differentiable module. Forward must be called before Backward;
// layers cache whatever intermediate state the backward pass needs, so a
// layer instance must not be used concurrently.
type Layer interface {
	// Name returns a short stable identifier, unique within a network.
	Name() string
	// Forward maps a batch input to a batch output. train selects
	// training-mode behaviour (e.g. batch statistics in BatchNorm).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes ∂loss/∂output and returns ∂loss/∂input,
	// accumulating parameter gradients into Params.
	Backward(dy *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
	// FLOPs returns the per-sample forward floating-point operation count
	// implied by the layer's geometry. The cluster model charges
	// 3×forward FLOPs per training sample (forward + backward).
	FLOPs() float64
}

// paramsBackward is implemented by layers that can accumulate their parameter
// gradients without producing ∂loss/∂input. Sequential calls it on its first
// layer, whose input gradient nobody reads; the parameter gradients are
// computed exactly as in Backward, so skipping the rest cannot change them.
type paramsBackward interface {
	BackwardParams(dy *tensor.Tensor)
}

// Batch is one minibatch of training or evaluation data. Image batches
// populate X and Labels; sequence batches populate Seq, where each sequence
// holds T+1 token ids (positions 0..T-1 are inputs, 1..T the targets).
type Batch struct {
	X      *tensor.Tensor
	Labels []int
	Seq    [][]int
}

// Size returns the number of examples in the batch.
func (b *Batch) Size() int {
	if b.X != nil {
		return b.X.Shape[0]
	}
	return len(b.Seq)
}

// Network is a trainable model. Both the sequential image classifiers and
// the LSTM language model implement it, so the federated machinery is
// agnostic to model family.
type Network interface {
	// Params returns every learnable parameter in a stable order.
	Params() []*Param
	// TrainStep runs forward and backward on the batch, leaving fresh
	// gradients in Params (previous gradients are cleared first). It
	// returns the mean loss over the batch and the number of correctly
	// classified examples (0 for language models, which report loss only).
	TrainStep(b *Batch) (loss float64, correct int)
	// Eval runs forward only and returns mean loss and correct count.
	Eval(b *Batch) (loss float64, correct int)
	// ForwardFLOPs returns the per-sample forward FLOP count.
	ForwardFLOPs() float64
}

// Sequential is a feed-forward image classifier: a chain of layers ending in
// logits, trained with softmax cross-entropy.
type Sequential struct {
	layers []Layer
	loss   SoftmaxCE
	params []*Param
}

// NewSequential builds a sequential network from layers. Layer names must be
// unique; NewSequential panics otherwise, since parameter exchange relies on
// stable unique names.
func NewSequential(layers ...Layer) *Sequential {
	seen := make(map[string]bool, len(layers))
	s := &Sequential{layers: layers}
	for _, l := range layers {
		if seen[l.Name()] {
			panic(fmt.Sprintf("nn: duplicate layer name %q", l.Name()))
		}
		seen[l.Name()] = true
		s.params = append(s.params, l.Params()...)
	}
	return s
}

// Layers returns the underlying layer chain (shared, not copied).
func (s *Sequential) Layers() []Layer { return s.layers }

// Params implements Network.
func (s *Sequential) Params() []*Param { return s.params }

// Forward runs the layer chain and returns the logits.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.layers {
		x = l.Forward(x, train)
	}
	return x
}

// TrainStep implements Network.
func (s *Sequential) TrainStep(b *Batch) (float64, int) {
	for _, p := range s.params {
		p.ZeroGrad()
	}
	logits := s.Forward(b.X, true)
	loss, correct, dlogits := s.loss.LossAndGrad(logits, b.Labels)
	dy := dlogits
	for i := len(s.layers) - 1; i > 0; i-- {
		dy = s.layers[i].Backward(dy)
	}
	if first, ok := s.layers[0].(paramsBackward); ok {
		first.BackwardParams(dy)
	} else {
		s.layers[0].Backward(dy)
	}
	return loss, correct
}

// Eval implements Network.
func (s *Sequential) Eval(b *Batch) (float64, int) {
	logits := s.Forward(b.X, false)
	loss, correct := s.loss.Loss(logits, b.Labels)
	return loss, correct
}

// ForwardFLOPs implements Network.
func (s *Sequential) ForwardFLOPs() float64 {
	var f float64
	for _, l := range s.layers {
		f += l.FLOPs()
	}
	return f
}

// ParamCount returns the total number of scalar parameters in net.
func ParamCount(net Network) int {
	n := 0
	for _, p := range net.Params() {
		n += p.W.Size()
	}
	return n
}

// GetWeights returns deep copies of every parameter tensor of net, in Params
// order. This is the wire representation exchanged in federated rounds.
func GetWeights(net Network) []*tensor.Tensor {
	ps := net.Params()
	ws := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		ws[i] = p.W.Clone()
	}
	return ws
}

// SetWeights copies ws into net's parameters. The slice must align with
// Params order and shapes; SetWeights panics on any mismatch.
func SetWeights(net Network, ws []*tensor.Tensor) {
	ps := net.Params()
	if len(ws) != len(ps) {
		panic(fmt.Sprintf("nn: SetWeights got %d tensors for %d params", len(ws), len(ps)))
	}
	for i, p := range ps {
		if !tensor.SameShape(p.W, ws[i]) {
			panic(fmt.Sprintf("nn: SetWeights shape mismatch at %q: %v vs %v",
				p.Name, p.W.Shape, ws[i].Shape))
		}
		p.W.CopyFrom(ws[i])
	}
}

// CloneWeights deep-copies a weight list.
func CloneWeights(ws []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ws))
	for i, w := range ws {
		out[i] = w.Clone()
	}
	return out
}

// WeightsSize returns the total scalar count across ws.
func WeightsSize(ws []*tensor.Tensor) int {
	n := 0
	for _, w := range ws {
		n += w.Size()
	}
	return n
}

// WeightsBytes returns the wire size of ws in bytes (float32 payload).
func WeightsBytes(ws []*tensor.Tensor) int64 { return int64(WeightsSize(ws)) * 4 }
