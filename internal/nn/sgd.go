package nn

import (
	"fmt"

	"fedmp/internal/tensor"
)

// SGD is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay. A single optimiser instance is bound to one network; the
// velocity buffers are keyed by parameter identity.
type SGD struct {
	// LR is the learning rate (must be positive).
	LR float32
	// Momentum in [0,1); 0 disables the velocity term.
	Momentum float32
	// WeightDecay is the L2 penalty coefficient applied to weights.
	WeightDecay float32

	velocity map[*Param]*tensor.Tensor
}

// NewSGD constructs an optimiser.
func NewSGD(lr, momentum, weightDecay float32) *SGD {
	if lr <= 0 {
		panic(fmt.Sprintf("nn: SGD learning rate must be positive, got %v", lr))
	}
	if momentum < 0 || momentum >= 1 {
		panic(fmt.Sprintf("nn: SGD momentum must be in [0,1), got %v", momentum))
	}
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay, velocity: make(map[*Param]*tensor.Tensor)}
}

// Step applies one update to every parameter using its current gradient:
//
//	v ← momentum·v + grad + wd·w
//	w ← w − lr·v
//
// in one pass per parameter (tensor.SGDStep) that leaves Grad untouched (it
// still reports the raw data gradient afterwards; the FedProx strategy reads
// it). The pass rounds exactly where the former clone / AddScaled / Scale /
// Add / AddScaled sequence stored to memory: every product is rounded before
// its add, momentum·v included.
func (s *SGD) Step(params []*Param) {
	wd, mom := s.WeightDecay, s.Momentum
	for _, p := range params {
		if p.Frozen {
			continue
		}
		if mom <= 0 {
			tensor.SGDStep(p.W.Data, p.Grad.Data, nil, s.LR, mom, wd)
			continue
		}
		vt, ok := s.velocity[p]
		if !ok {
			vt = tensor.New(p.W.Shape...) // one velocity buffer per parameter, on its first step
			s.velocity[p] = vt
		}
		tensor.SGDStep(p.W.Data, p.Grad.Data, vt.Data, s.LR, mom, wd)
	}
}

// Reset re-dimensions every velocity buffer to its parameter's current shape
// (Network.Reshape) and zeroes it in place, so an optimiser kept with its
// network starts the next assignment exactly as a NewSGD would — stale
// momentum from another round's weights is meaningless — and allocates only
// when a parameter outgrows its buffer's storage.
func (s *SGD) Reset() {
	for p, v := range s.velocity {
		v = ensure(v, p.W.Shape...)
		v.Zero()
		s.velocity[p] = v
	}
}

// AddProximal adds the FedProx proximal gradient μ·(w − w₀) to each
// parameter's gradient, where w₀ is the round's reference weights in Params
// order. Used by the FedProx baseline strategy.
func AddProximal(params []*Param, reference []*tensor.Tensor, mu float32) {
	if len(params) != len(reference) {
		panic(fmt.Sprintf("nn: AddProximal got %d reference tensors for %d params", len(reference), len(params)))
	}
	if mu == 0 {
		return
	}
	for i, p := range params {
		if p.Frozen {
			continue
		}
		for j := range p.Grad.Data {
			p.Grad.Data[j] += mu * (p.W.Data[j] - reference[i].Data[j])
		}
	}
}
