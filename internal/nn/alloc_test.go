//go:build !race

package nn

import (
	"math/rand"
	"testing"

	"fedmp/internal/tensor"
)

// The steady-state training path is designed to perform (almost) zero heap
// allocations per step: every layer reuses its output and workspace buffers
// once batch geometry is stable, and the GEMM engine draws pack buffers from
// tensor.Scratch. These tests pin that property so a stray allocation in a
// hot loop shows up as a regression rather than as silent GC pressure.
//
// The file is excluded under the race detector, which instruments allocations
// and breaks testing.AllocsPerRun's accounting.

// allocsPerRun warms f up (first call allocates all cached buffers) and then
// measures the steady-state allocation count.
func allocsPerRun(f func()) float64 {
	f()
	f()
	return testing.AllocsPerRun(20, f)
}

func TestDenseStepAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 64, 32, rng)
	x := tensor.RandN(rng, 8, 64)
	dy := tensor.RandN(rng, 8, 32)
	got := allocsPerRun(func() {
		d.Forward(x, true)
		d.Backward(dy)
	})
	if got > 0 {
		t.Errorf("Dense forward+backward allocates %.1f objects per step, want 0", got)
	}
}

// TestConvStepAllocsZero covers both ways a step runs: a product on the
// direct side of the GEMM threshold, which every tier lowers, and sim-cnn30's
// conv2, which a tier with the indirect kernels multiplies out of the padded
// sample — there without ever growing the column matrix.
func TestConvStepAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, g := range []tensor.ConvGeom{
		{InC: 4, InH: 8, InW: 8, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 5, KW: 5, Stride: 1, Pad: 2},
	} {
		c := NewConv2D("c", g, rng)
		x := tensor.RandN(rng, 4, g.InC, g.InH, g.InW)
		dy := tensor.RandN(rng, 4, g.OutC, g.OutH(), g.OutW())
		got := allocsPerRun(func() {
			c.Forward(x, true)
			c.Backward(dy)
		})
		if got > 0 {
			t.Errorf("Conv2D %+v forward+backward allocates %.1f objects per step, want 0", g, got)
		}
		if grown := c.cols != nil; grown == c.plan() {
			t.Errorf("Conv2D %+v: indirect %v, column matrix grown %v", g, c.plan(), grown)
		}
	}
}

func TestLSTMStepAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLSTM("l", 16, 16, rng)
	x := tensor.RandN(rng, 4, 5, 16)
	dy := tensor.RandN(rng, 4, 5, 16)
	got := allocsPerRun(func() {
		l.Forward(x)
		l.Backward(dy)
	})
	if got > 0 {
		t.Errorf("LSTM forward+backward allocates %.1f objects per step, want 0", got)
	}
}

func TestBatchNormStepAllocsZero(t *testing.T) {
	b := NewBatchNorm2D("bn", 4)
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandN(rng, 4, 4, 8, 8)
	dy := tensor.RandN(rng, 4, 4, 8, 8)
	got := allocsPerRun(func() {
		b.Forward(x, true)
		b.Backward(dy)
	})
	if got > 0 {
		t.Errorf("BatchNorm2D forward+backward allocates %.1f objects per step, want 0", got)
	}
}

func TestSequentialTrainStepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small := NewSequential(
		NewConv2D("c1", tensor.ConvGeom{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, rng),
		NewReLU("r1"),
		NewFlatten("f", 4*8*8),
		NewDense("d", 4*8*8, 10, rng),
	)
	// sim-cnn30's network: both convolutions qualify for the indirect path.
	cnn := NewSequential(
		NewConv2D("c1", tensor.ConvGeom{InC: 1, InH: 16, InW: 16, OutC: 8, KH: 5, KW: 5, Stride: 1, Pad: 2}, rng),
		NewReLU("r1"),
		NewMaxPool2D("p1", 8, 16, 16, 2),
		NewConv2D("c2", tensor.ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 5, KW: 5, Stride: 1, Pad: 2}, rng),
		NewReLU("r2"),
		NewMaxPool2D("p2", 16, 8, 8, 2),
		NewFlatten("f", 16*4*4),
		NewDense("d", 16*4*4, 10, rng),
	)
	for name, tc := range map[string]struct {
		net   *Sequential
		batch *Batch
	}{
		"small": {small, &Batch{X: tensor.RandN(rng, 4, 1, 8, 8), Labels: []int{0, 1, 2, 3}}},
		"cnn":   {cnn, imageBatch(rng, 8, 1, 16, 16, 10)},
	} {
		if got := allocsPerRun(func() { tc.net.TrainStep(tc.batch) }); got > 0 {
			t.Errorf("%s: Sequential.TrainStep allocates %.1f objects per step, want 0", name, got)
		}
	}
}

// TestSGDStepAllocsZero pins the optimiser half of the train step: with
// weight decay and momentum on (the experiment defaults) Step allocates its
// velocity buffers on the first call and nothing afterwards.
func TestSGDStepAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewSequential(NewDense("d1", 32, 16, rng), NewReLU("r"), NewDense("d2", 16, 4, rng))
	net.TrainStep(&Batch{X: tensor.RandN(rng, 4, 32), Labels: []int{0, 1, 2, 3}})
	for _, opt := range []*SGD{NewSGD(0.05, 0.9, 2e-3), NewSGD(0.05, 0, 2e-3)} {
		if got := allocsPerRun(func() { opt.Step(net.Params()) }); got > 0 {
			t.Errorf("SGD.Step (momentum %v, decay %v) allocates %.1f objects per step, want 0", opt.Momentum, opt.WeightDecay, got)
		}
	}
}

// TestWorkspacesGrowOnly pins the capacity-keyed buffers: once a network has
// seen its largest batch, a shorter one (EvalChunked's tail chunk) and the
// return to the full size re-slice every workspace instead of reallocating.
func TestWorkspacesGrowOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewSequential(
		NewConv2D("c1", tensor.ConvGeom{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, rng),
		NewBatchNorm2D("bn", 4),
		NewReLU("r1"),
		NewMaxPool2D("p1", 4, 8, 8, 2),
		NewFlatten("f", 4*4*4),
		NewDense("d", 4*4*4, 10, rng),
	)
	full, tail := tensor.RandN(rng, 64, 1, 8, 8), tensor.RandN(rng, 44, 1, 8, 8)
	got := allocsPerRun(func() {
		net.Forward(full, false)
		net.Forward(tail, false)
	})
	if got > 0 {
		t.Errorf("alternating 64- and 44-sample chunks allocates %.1f objects per pair, want 0", got)
	}
}

func TestGlobalAvgPoolStepAllocsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := NewGlobalAvgPool("gap", 6, 4, 4)
	x := tensor.RandN(rng, 8, 6, 4, 4)
	dy := tensor.RandN(rng, 8, 6)
	got := allocsPerRun(func() {
		p.Forward(x, true)
		p.Backward(dy)
	})
	if got > 0 {
		t.Errorf("GlobalAvgPool forward+backward allocates %.1f objects per step, want 0", got)
	}
}

func TestLSTMLMTrainStepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewLSTMLM(32, 8, 16, 5, rng)
	seqs := make([][]int, 4)
	for i := range seqs {
		s := make([]int, 6)
		for j := range s {
			s[j] = rng.Intn(32)
		}
		seqs[i] = s
	}
	batch := &Batch{Seq: seqs}
	got := allocsPerRun(func() { m.TrainStep(batch) })
	if got > 0 {
		t.Errorf("LSTMLM.TrainStep allocates %.1f objects per step, want 0", got)
	}
}
