package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"fedmp/internal/tensor"
)

// Layer micro-benchmarks: the parts of the root package's ConvForward and
// TrainStepCNN benchmarks, so a move in the train step can be traced to them.

// BenchmarkConvBackward is the backward half of the root package's
// BenchmarkConvForward: 16→32 channels, 3×3, on 16×16 planes, batch 8.
func BenchmarkConvBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := tensor.ConvGeom{InC: 16, InH: 16, InW: 16, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := NewConv2D("c", g, rng)
	x := tensor.RandN(rng, 8, 16, 16, 16)
	dy := tensor.RandN(rng, 8, 32, 16, 16)
	conv.Forward(x, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Backward(dy)
	}
}

// BenchmarkConvStep is one layer's forward plus backward at batch 8 on the
// shapes sim-cnn30 trains — conv1 and conv2 at full width and at the width a
// 0.4 pruning ratio leaves — and AlexNet's 16→32 layer, each on the lowered
// products and, where the tier and the geometry have one, the indirect path:
// the per-layer saving without the suite. (conv1 at 5 filters is on the direct
// side of the GEMM threshold and lowers on every tier.) Each runs as "step"
// (Forward + Backward), "backward" (Backward alone) and "params-only"
// (BackwardParams, what a network's first layer runs): backward minus
// params-only is the input gradient's cost.
func BenchmarkConvStep(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    tensor.ConvGeom
	}{
		{"conv1-1to8-16x16", tensor.ConvGeom{InC: 1, InH: 16, InW: 16, OutC: 8, KH: 5, KW: 5, Stride: 1, Pad: 2}},
		{"conv1-1to5-16x16", tensor.ConvGeom{InC: 1, InH: 16, InW: 16, OutC: 5, KH: 5, KW: 5, Stride: 1, Pad: 2}},
		{"conv2-8to16-8x8", tensor.ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 5, KW: 5, Stride: 1, Pad: 2}},
		{"conv2-5to10-8x8", tensor.ConvGeom{InC: 5, InH: 8, InW: 8, OutC: 10, KH: 5, KW: 5, Stride: 1, Pad: 2}},
		{"alexnet-16to32-8x8", tensor.ConvGeom{InC: 16, InH: 8, InW: 8, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}},
	} {
		rng := rand.New(rand.NewSource(5))
		x := tensor.RandN(rng, 8, tc.g.InC, tc.g.InH, tc.g.InW)
		dy := tensor.RandN(rng, 8, tc.g.OutC, tc.g.OutH(), tc.g.OutW())
		for _, lowered := range []bool{true, false} {
			conv := NewConv2D("c", tc.g, rng)
			conv.lowered = lowered
			path := "lowered"
			if conv.plan() {
				path = "indirect"
			} else if !lowered {
				continue // no second path for this shape on this tier
			}
			for _, part := range []struct {
				name string
				run  func()
			}{
				{"step", func() { conv.Forward(x, true); conv.Backward(dy) }},
				{"backward", func() { conv.Backward(dy) }},
				{"params-only", func() { conv.BackwardParams(dy) }},
			} {
				b.Run(tc.name+"/"+path+"/"+part.name, func(b *testing.B) {
					conv.Forward(x, true)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						part.run()
					}
				})
			}
		}
	}
}

// BenchmarkSGDStep updates the zoo CNN's parameter shapes with the
// experiments' optimiser settings (momentum 0.9, weight decay 2e-3).
func BenchmarkSGDStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var params []*Param
	for _, shape := range [][]int{{8, 1, 5, 5}, {8}, {16, 8, 5, 5}, {16}, {64, 256}, {64}, {10, 64}, {10}} {
		p := NewParam("p", tensor.RandN(rng, shape...))
		p.Grad = tensor.RandN(rng, shape...)
		params = append(params, p)
	}
	opt := NewSGD(0.05, 0.9, 2e-3)
	opt.Step(params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(params)
	}
}

// BenchmarkReLU is one forward and one backward pass over conv1's output in
// the CNN, batch 8 (8 planes of 16×16); FEDMP_KERNEL=generic times the Go
// loops beside the avx2 kernels.
func BenchmarkReLU(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x, dy := tensor.RandN(rng, 8, 8, 16, 16), tensor.RandN(rng, 8, 8, 16, 16)
	r := NewReLU("r")
	r.Forward(x, true)
	r.Backward(dy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Forward(x, true)
		r.Backward(dy)
	}
}

// BenchmarkMaxPool2x2 is the same for the CNN's pool1 on that output.
func BenchmarkMaxPool2x2(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x, dy := tensor.RandN(rng, 8, 8, 16, 16), tensor.RandN(rng, 8, 8, 8, 8)
	m := NewMaxPool2D("p", 8, 16, 16, 2)
	m.Forward(x, true)
	m.Backward(dy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, true)
		m.Backward(dy)
	}
}

// BenchmarkSoftmaxCE is the language model's loss on one training batch —
// 8 sequences of 12 targets over 80 words — with the gradient ("train") and
// without ("eval"); FEDMP_KERNEL=generic times the scalar exp beside it.
func BenchmarkSoftmaxCE(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const n, k = 96, 80
	logits := tensor.RandN(rng, n, k)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(k)
	}
	var head SoftmaxCE
	b.Run("train", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			head.LossAndGrad(logits, labels)
		}
	})
	b.Run("eval", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			head.Loss(logits, labels)
		}
	})
}

// BenchmarkLSTMLayer is one forward and one backward pass of the language
// model's second LSTM over a batch of 8 sequences of 12 steps, at the full
// width h = 32 and at h = 19, a width pruning leaves (the gate passes then
// end in a tail of three); FEDMP_KERNEL=generic times the Go loops.
func BenchmarkLSTMLayer(b *testing.B) {
	for _, h := range []int{32, 19} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			l := NewLSTM("l", h, h, rng)
			x, dout := tensor.RandN(rng, 8, 12, h), tensor.RandN(rng, 8, 12, h)
			l.Forward(x)
			l.Backward(dout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Forward(x)
				l.Backward(dout)
			}
		})
	}
}
