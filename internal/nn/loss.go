package nn

import (
	"fmt"
	"math"

	"fedmp/internal/tensor"
)

// SoftmaxCE is a softmax cross-entropy head over class logits. Both
// classifiers and the per-timestep language-model loss use it. The gradient
// buffer is cached on the head and reused across steps, so LossAndGrad does
// not allocate once batch geometry is stable; the returned gradient is valid
// until the next LossAndGrad call.
type SoftmaxCE struct {
	grad *tensor.Tensor
	exps []float64 // one row of exp(logit − max), reused across rows and calls
}

// Loss computes the mean cross-entropy loss of logits [N, K] against integer
// labels, plus the number of argmax-correct predictions.
func (s *SoftmaxCE) Loss(logits *tensor.Tensor, labels []int) (loss float64, correct int) {
	loss, correct, _ = s.softmaxCE(logits, labels, nil)
	return loss, correct
}

// LossAndGrad additionally returns ∂loss/∂logits (already divided by N).
func (s *SoftmaxCE) LossAndGrad(logits *tensor.Tensor, labels []int) (loss float64, correct int, grad *tensor.Tensor) {
	if len(logits.Shape) == 2 { // otherwise let softmaxCE report the misuse
		s.grad = ensure(s.grad, logits.Shape[0], logits.Shape[1])
	}
	return s.softmaxCE(logits, labels, s.grad)
}

// softmaxCE is the head's one pass. Each row's exp(logit − max) goes through
// one tensor.ExpInto sweep into the head's scratch row; the sum and, when
// grad is non-nil, the gradient read them from there.
//
//fedmp:allocfree
func (s *SoftmaxCE) softmaxCE(logits *tensor.Tensor, labels []int, grad *tensor.Tensor) (float64, int, *tensor.Tensor) {
	if len(logits.Shape) != 2 {
		panic(fmt.Sprintf("nn: softmax expects [N K] logits, got %v", logits.Shape))
	}
	n, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d logits rows", len(labels), n))
	}
	wantGrad := grad != nil
	s.exps = grow(s.exps, k) //fedmp:transitive-ok — allocates only when the rows get longer
	exps := s.exps
	var totalLoss float64
	correct := 0
	invN := 1 / float32(n)
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		label := labels[i]
		if label < 0 || label >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, k))
		}
		if tensor.ArgMax(row) == label {
			correct++
		}
		// Numerically stable log-softmax.
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		for j, v := range row {
			exps[j] = float64(v - maxv)
		}
		tensor.ExpInto(exps, exps)
		var sumExp float64
		for _, e := range exps {
			sumExp += e
		}
		logSum := math.Log(sumExp)
		totalLoss += logSum - float64(row[label]-maxv)
		if wantGrad {
			g := grad.Data[i*k : (i+1)*k]
			for j, e := range exps {
				p := float32(e / sumExp)
				if j == label {
					p -= 1
				}
				g[j] = p * invN
			}
		}
	}
	return totalLoss / float64(n), correct, grad
}
