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
// in one pass per parameter that leaves Grad untouched (it still reports the
// raw data gradient afterwards; the FedProx strategy reads it). The pass
// rounds exactly where the former clone / AddScaled / Scale / Add / AddScaled
// sequence stored to memory: momentum·v is rounded before the add, which the
// explicit conversion forces on architectures that would otherwise fuse it,
// while grad + wd·w and w − lr·v keep the axpy shape AddScaled has.
//
//fedmp:allocfree
func (s *SGD) Step(params []*Param) {
	wd, mom, lr := s.WeightDecay, s.Momentum, -s.LR
	for _, p := range params {
		if p.Frozen {
			continue
		}
		w := p.W.Data
		grad := p.Grad.Data[:len(w)]
		if mom <= 0 {
			for j, g := range grad {
				if wd != 0 {
					g += wd * w[j]
				}
				w[j] += lr * g
			}
			continue
		}
		vt, ok := s.velocity[p]
		if !ok {
			vt = tensor.New(p.W.Shape...) //fedmp:transitive-ok — one velocity buffer per parameter, on its first step
			s.velocity[p] = vt
		}
		v := vt.Data[:len(w)]
		for j, g := range grad {
			if wd != 0 {
				g += wd * w[j]
			}
			vj := float32(v[j]*mom) + g
			v[j] = vj
			w[j] += lr * vj
		}
	}
}

// Reset zeroes every velocity buffer in place, so an optimiser kept with its
// network starts the next assignment exactly as a NewSGD would — stale
// momentum from another round's weights is meaningless — and allocates
// nothing doing so.
func (s *SGD) Reset() {
	for _, v := range s.velocity {
		v.Zero()
	}
}

// AddProximal adds the FedProx proximal gradient μ·(w − w₀) to each
// parameter's gradient, where w₀ is the round's reference weights in Params
// order. Used by the FedProx baseline strategy.
//
//fedmp:allocfree
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
