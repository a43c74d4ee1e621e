package nn

import (
	"fmt"
	"math"

	"fedmp/internal/tensor"
)

// bnEps stabilises the variance denominator.
const bnEps = 1e-5

// bnMomentum is the exponential-moving-average factor for running
// statistics used at evaluation time.
const bnMomentum = 0.1

// BatchNorm2D normalises each channel of an NCHW activation over the batch
// and spatial dimensions, then applies a learned per-channel affine
// transform (gamma, beta). Running mean/variance are tracked for eval mode.
//
// The paper prunes batch-normalisation channels together with the filters of
// the preceding convolution (§III-B). All four per-channel vectors —
// learnable Gamma/Beta and the frozen running Mean/Var — are exposed as
// Params so parameter exchange, aggregation and sub-model extraction treat
// them uniformly; the optimiser skips the frozen pair.
type BatchNorm2D struct {
	name        string
	C           int
	Gamma, Beta *Param
	Mean, Var   *Param // frozen running statistics

	// cached state for backward and reused output buffers
	x      *tensor.Tensor
	xhat   []float32
	mean   []float32
	invStd []float32
	y, dx  *tensor.Tensor
}

// NewBatchNorm2D constructs a batch-normalisation layer over c channels with
// gamma=1, beta=0, running mean 0 and running variance 1.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	if c <= 0 {
		panic(fmt.Sprintf("nn: BatchNorm2D %q with non-positive channels %d", name, c))
	}
	return &BatchNorm2D{
		name:  name,
		C:     c,
		Gamma: NewParam(name+"/gamma", tensor.Full(1, c)),
		Beta:  NewParam(name+"/beta", tensor.New(c)),
		Mean:  NewFrozenParam(name+"/mean", tensor.New(c)),
		Var:   NewFrozenParam(name+"/var", tensor.Full(1, c)),
	}
}

// Name implements Layer.
func (b *BatchNorm2D) Name() string { return b.name }

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta, b.Mean, b.Var} }

// FLOPs implements Layer: normalisation plus affine is a handful of ops per
// element; charged as 4 per element of one sample (spatial size is recovered
// from the most recent forward, 0 before any forward).
func (b *BatchNorm2D) FLOPs() float64 {
	if b.x == nil || b.x.Shape[0] == 0 {
		return 0
	}
	return 4 * float64(len(b.x.Data)) / float64(b.x.Shape[0])
}

// RunningStats returns the running mean and variance slices (live, not
// copies).
func (b *BatchNorm2D) RunningStats() (mean, variance []float32) {
	return b.Mean.W.Data, b.Var.W.Data
}

// SetRunningStats overwrites the running statistics.
func (b *BatchNorm2D) SetRunningStats(mean, variance []float32) {
	if len(mean) != b.C || len(variance) != b.C {
		panic(fmt.Sprintf("nn: BatchNorm2D %q SetRunningStats length %d/%d, want %d",
			b.name, len(mean), len(variance), b.C))
	}
	copy(b.Mean.W.Data, mean)
	copy(b.Var.W.Data, variance)
}

// Forward implements Layer.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != b.C {
		panic(fmt.Sprintf("nn: BatchNorm2D %q got input %v, want [N %d H W]", b.name, x.Shape, b.C))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	plane := h * w
	cnt := n * plane
	y := ensure(b.y, x.Shape...)
	b.y = y
	b.x = x
	b.xhat = grow(b.xhat, len(x.Data))
	if len(b.mean) != b.C {
		b.mean = make([]float32, b.C)
		b.invStd = make([]float32, b.C)
	}
	for c := 0; c < b.C; c++ {
		var mean, variance float32
		if train {
			var s float64
			for i := 0; i < n; i++ {
				src := x.Data[(i*b.C+c)*plane : (i*b.C+c+1)*plane]
				for _, v := range src {
					s += float64(v)
				}
			}
			mean = float32(s / float64(cnt))
			var sv float64
			for i := 0; i < n; i++ {
				src := x.Data[(i*b.C+c)*plane : (i*b.C+c+1)*plane]
				for _, v := range src {
					d := float64(v - mean)
					sv += d * d
				}
			}
			variance = float32(sv / float64(cnt))
			b.Mean.W.Data[c] = (1-bnMomentum)*b.Mean.W.Data[c] + bnMomentum*mean
			b.Var.W.Data[c] = (1-bnMomentum)*b.Var.W.Data[c] + bnMomentum*variance
		} else {
			mean, variance = b.Mean.W.Data[c], b.Var.W.Data[c]
		}
		invStd := float32(1 / math.Sqrt(float64(variance)+bnEps))
		b.mean[c], b.invStd[c] = mean, invStd
		g, beta := b.Gamma.W.Data[c], b.Beta.W.Data[c]
		for i := 0; i < n; i++ {
			off := (i*b.C + c) * plane
			src := x.Data[off : off+plane]
			xh := b.xhat[off : off+plane]
			dst := y.Data[off : off+plane]
			for j, v := range src {
				hv := (v - mean) * invStd
				xh[j] = hv
				dst[j] = g*hv + beta
			}
		}
	}
	return y
}

// Backward implements Layer using the standard batch-norm gradient:
//
//	dx = (gamma·invStd/m) · (m·dy − Σdy − x̂·Σ(dy·x̂))
func (b *BatchNorm2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	n, h, w := b.x.Shape[0], b.x.Shape[2], b.x.Shape[3]
	plane := h * w
	m := float32(n * plane)
	dx := ensure(b.dx, b.x.Shape...)
	b.dx = dx
	for c := 0; c < b.C; c++ {
		var sumDy, sumDyXhat float64
		for i := 0; i < n; i++ {
			off := (i*b.C + c) * plane
			dyv := dy.Data[off : off+plane]
			xh := b.xhat[off : off+plane]
			for j, v := range dyv {
				sumDy += float64(v)
				sumDyXhat += float64(v) * float64(xh[j])
			}
		}
		b.Beta.Grad.Data[c] += float32(sumDy)
		b.Gamma.Grad.Data[c] += float32(sumDyXhat)
		g := b.Gamma.W.Data[c]
		k := g * b.invStd[c] / m
		sDy, sDyX := float32(sumDy), float32(sumDyXhat)
		for i := 0; i < n; i++ {
			off := (i*b.C + c) * plane
			dyv := dy.Data[off : off+plane]
			xh := b.xhat[off : off+plane]
			dst := dx.Data[off : off+plane]
			for j, v := range dyv {
				dst[j] = k * (m*v - sDy - xh[j]*sDyX)
			}
		}
	}
	return dx
}
