package nn

import (
	"math"
	"math/rand"
	"testing"

	"fedmp/internal/tensor"
)

// separableBatch builds a linearly separable 2-class problem: class 0 points
// have negative first coordinate, class 1 positive.
func separableBatch(rng *rand.Rand, n int) *Batch {
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := rng.Intn(2)
		labels[i] = cls
		sign := float32(-1)
		if cls == 1 {
			sign = 1
		}
		x.Data[i*2] = sign * (0.5 + rng.Float32())
		x.Data[i*2+1] = float32(rng.NormFloat64()) * 0.1
	}
	return &Batch{X: x, Labels: labels}
}

func TestSGDLearnsSeparableProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewSequential(
		NewDense("fc1", 2, 8, rng),
		NewReLU("relu"),
		NewDense("fc2", 8, 2, rng),
	)
	opt := NewSGD(0.1, 0.9, 0)
	b := separableBatch(rng, 64)
	first, _ := net.Eval(b)
	for i := 0; i < 60; i++ {
		net.TrainStep(b)
		opt.Step(net.Params())
	}
	last, correct := net.Eval(b)
	if last >= first {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
	if correct < 60 {
		t.Errorf("only %d/64 correct after training", correct)
	}
}

func TestConvNetLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := NewSequential(
		NewConv2D("conv1", g, rng),
		NewReLU("relu1"),
		NewMaxPool2D("pool1", 4, 8, 8, 2),
		NewFlatten("flat", 4*4*4),
		NewDense("fc", 4*4*4, 2, rng),
	)
	// Class 0: bright top half. Class 1: bright bottom half.
	n := 32
	x := tensor.New(n, 1, 8, 8)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := rng.Intn(2)
		labels[i] = cls
		for h := 0; h < 8; h++ {
			for w := 0; w < 8; w++ {
				v := float32(rng.NormFloat64()) * 0.1
				if (cls == 0 && h < 4) || (cls == 1 && h >= 4) {
					v += 1
				}
				x.Data[(i*8+h)*8+w] = v
			}
		}
	}
	b := &Batch{X: x, Labels: labels}
	opt := NewSGD(0.05, 0.9, 0)
	for i := 0; i < 40; i++ {
		net.TrainStep(b)
		opt.Step(net.Params())
	}
	_, correct := net.Eval(b)
	if correct < 30 {
		t.Errorf("conv net learned only %d/32", correct)
	}
}

func TestSGDStepMatchesFormula(t *testing.T) {
	w := tensor.FromSlice([]float32{1, 2}, 2)
	p := NewParam("p", w)
	p.Grad.Data[0], p.Grad.Data[1] = 0.5, -1

	opt := NewSGD(0.1, 0, 0)
	opt.Step([]*Param{p})
	if math.Abs(float64(p.W.Data[0]-0.95)) > 1e-6 || math.Abs(float64(p.W.Data[1]-2.1)) > 1e-6 {
		t.Errorf("plain SGD step: got %v", p.W.Data)
	}

	// Momentum accumulates: second step with same grad moves further.
	opt2 := NewSGD(0.1, 0.5, 0)
	p2 := NewParam("p2", tensor.FromSlice([]float32{0}, 1))
	p2.Grad.Data[0] = 1
	opt2.Step([]*Param{p2}) // v=1, w=-0.1
	opt2.Step([]*Param{p2}) // v=1.5, w=-0.25
	if math.Abs(float64(p2.W.Data[0]+0.25)) > 1e-6 {
		t.Errorf("momentum SGD: got %v, want -0.25", p2.W.Data[0])
	}
}

func TestSGDWeightDecayPreservesRawGrad(t *testing.T) {
	opt := NewSGD(0.1, 0, 0.5)
	p := NewParam("p", tensor.FromSlice([]float32{2}, 1))
	p.Grad.Data[0] = 1
	opt.Step([]*Param{p})
	// w ← 2 − 0.1·(1 + 0.5·2) = 1.8
	if math.Abs(float64(p.W.Data[0]-1.8)) > 1e-6 {
		t.Errorf("weight decay step: got %v, want 1.8", p.W.Data[0])
	}
	if p.Grad.Data[0] != 1 {
		t.Errorf("Step mutated the raw gradient: %v", p.Grad.Data[0])
	}
}

func TestSGDValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewSGD(0, 0, 0) },
		func() { NewSGD(0.1, 1, 0) },
		func() { NewSGD(0.1, -0.1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid SGD config did not panic")
				}
			}()
			f()
		}()
	}
}

// TestSGDReset: after Reset the optimiser steps exactly as a new one does,
// and resetting allocates nothing.
func TestSGDReset(t *testing.T) {
	opt, fresh := NewSGD(0.1, 0.9, 0), NewSGD(0.1, 0.9, 0)
	p := NewParam("p", tensor.FromSlice([]float32{0, 2}, 2))
	p.Grad.Data[0], p.Grad.Data[1] = 1, -3
	opt.Step([]*Param{p})
	opt.Step([]*Param{p})
	if allocs := testing.AllocsPerRun(10, opt.Reset); allocs != 0 {
		t.Errorf("Reset allocates %v times", allocs)
	}
	q := NewParam("q", p.W.Clone())
	q.Grad.CopyFrom(p.Grad)
	opt.Step([]*Param{p})
	fresh.Step([]*Param{q})
	for i := range p.W.Data {
		if math.Float32bits(p.W.Data[i]) != math.Float32bits(q.W.Data[i]) {
			t.Errorf("element %d after Reset: %v, fresh optimiser %v", i, p.W.Data[i], q.W.Data[i])
		}
	}
}

func TestAddProximal(t *testing.T) {
	p := NewParam("p", tensor.FromSlice([]float32{3, 1}, 2))
	p.Grad.Data[0], p.Grad.Data[1] = 0.1, 0.1
	ref := []*tensor.Tensor{tensor.FromSlice([]float32{1, 1}, 2)}
	AddProximal([]*Param{p}, ref, 0.5)
	// grad[0] += 0.5·(3−1) = 1.1; grad[1] += 0
	if math.Abs(float64(p.Grad.Data[0]-1.1)) > 1e-6 || math.Abs(float64(p.Grad.Data[1]-0.1)) > 1e-6 {
		t.Errorf("AddProximal: got %v", p.Grad.Data)
	}
	// mu == 0 must be a no-op even with mismatched values.
	AddProximal([]*Param{p}, ref, 0)
	if math.Abs(float64(p.Grad.Data[0]-1.1)) > 1e-6 {
		t.Error("AddProximal with mu=0 changed gradients")
	}
}

func TestGetSetWeightsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewSequential(NewDense("fc1", 4, 3, rng), NewDense("fc2", 3, 2, rng))
	b := NewSequential(NewDense("fc1", 4, 3, rng), NewDense("fc2", 3, 2, rng))
	ws := GetWeights(a)
	SetWeights(b, ws)
	for i, p := range a.Params() {
		if !tensor.Equal(p.W, b.Params()[i].W) {
			t.Fatalf("weights differ at %s after SetWeights", p.Name)
		}
	}
	// GetWeights must deep-copy.
	ws[0].Data[0] = 999
	if a.Params()[0].W.Data[0] == 999 {
		t.Error("GetWeights returned aliased tensors")
	}
}

func TestSetWeightsShapeMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewSequential(NewDense("fc", 4, 3, rng))
	defer func() {
		if recover() == nil {
			t.Fatal("SetWeights with wrong shape did not panic")
		}
	}()
	SetWeights(a, []*tensor.Tensor{tensor.New(3, 5), tensor.New(3)})
}

func TestParamCountAndBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewSequential(NewDense("fc", 10, 5, rng))
	if got := ParamCount(net); got != 55 {
		t.Errorf("ParamCount = %d, want 55", got)
	}
	ws := GetWeights(net)
	if got := WeightsSize(ws); got != 55 {
		t.Errorf("WeightsSize = %d, want 55", got)
	}
	if got := WeightsBytes(ws); got != 220 {
		t.Errorf("WeightsBytes = %d, want 220", got)
	}
}

func TestDuplicateLayerNamesPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate layer names did not panic")
		}
	}()
	NewSequential(NewDense("fc", 2, 2, rng), NewDense("fc", 2, 2, rng))
}

func TestSoftmaxCE(t *testing.T) {
	logits := tensor.FromSlice([]float32{10, 0, 0, 0, 10, 0}, 2, 3)
	var l SoftmaxCE
	loss, correct := l.Loss(logits, []int{0, 1})
	if correct != 2 {
		t.Errorf("correct = %d, want 2", correct)
	}
	if loss > 1e-3 {
		t.Errorf("confident correct loss = %v, want ~0", loss)
	}
	loss2, correct2 := l.Loss(logits, []int{1, 0})
	if correct2 != 0 {
		t.Errorf("correct2 = %d, want 0", correct2)
	}
	if loss2 < 5 {
		t.Errorf("confident wrong loss = %v, want ~10", loss2)
	}
	// Gradient rows sum to zero (softmax minus one-hot, scaled by 1/N).
	_, _, grad := l.LossAndGrad(logits, []int{0, 1})
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 3; j++ {
			s += float64(grad.At(i, j))
		}
		if math.Abs(s) > 1e-6 {
			t.Errorf("grad row %d sums to %v, want 0", i, s)
		}
	}
}

func TestSoftmaxCENumericalStability(t *testing.T) {
	logits := tensor.FromSlice([]float32{1e8, 0, -1e8, 0, 1e8, -1e8}, 2, 3)
	var l SoftmaxCE
	loss, _, grad := l.LossAndGrad(logits, []int{0, 1})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Errorf("loss = %v with extreme logits", loss)
	}
	if !grad.IsFinite() {
		t.Error("gradient not finite with extreme logits")
	}
}

func TestSoftmaxCELabelRangePanics(t *testing.T) {
	logits := tensor.New(1, 3)
	var l SoftmaxCE
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label did not panic")
		}
	}()
	l.Loss(logits, []int{3})
}

func TestBatchNormTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.RandN(rng, 8, 2, 3, 3)
	x.AddScalar(3) // shift so normalisation visibly changes values
	y := bn.Forward(x, true)
	// Training mode output is normalised per channel: mean ~0.
	var mean float64
	for _, v := range y.Data {
		mean += float64(v)
	}
	mean /= float64(len(y.Data))
	if math.Abs(mean) > 0.05 {
		t.Errorf("train-mode BN mean = %v, want ~0", mean)
	}
	// After many updates the running stats approach the batch stats, so
	// eval output approaches train output.
	for i := 0; i < 200; i++ {
		bn.Forward(x, true)
	}
	yEval := bn.Forward(x, false)
	if !tensor.AllClose(y, yEval, 0.1) {
		t.Error("eval-mode BN diverges from train-mode after stats converge")
	}
}

func TestBatchNormRunningStatsAccessors(t *testing.T) {
	bn := NewBatchNorm2D("bn", 3)
	mean, variance := bn.RunningStats()
	if len(mean) != 3 || len(variance) != 3 {
		t.Fatal("RunningStats wrong lengths")
	}
	bn.SetRunningStats([]float32{1, 2, 3}, []float32{4, 5, 6})
	mean, variance = bn.RunningStats()
	if mean[1] != 2 || variance[2] != 6 {
		t.Error("SetRunningStats did not stick")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetRunningStats with wrong length did not panic")
		}
	}()
	bn.SetRunningStats([]float32{1}, []float32{1})
}

func TestLSTMLMLearnsDeterministicSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// A fixed cyclic sequence 0,1,2,...,7,0,1,... is perfectly predictable.
	m := NewLSTMLM(8, 8, 16, 8, rng)
	opt := NewSGD(0.5, 0.9, 0)
	seqs := make([][]int, 4)
	for i := range seqs {
		s := make([]int, 9)
		for j := range s {
			s[j] = (i + j) % 8
		}
		seqs[i] = s
	}
	b := &Batch{Seq: seqs}
	first, _ := m.Eval(b)
	for i := 0; i < 80; i++ {
		m.TrainStep(b)
		opt.Step(m.Params())
	}
	last, _ := m.Eval(b)
	if last >= first/2 {
		t.Errorf("LM loss %v -> %v; expected clear improvement", first, last)
	}
}

func TestLSTMLMForwardFLOPsPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewLSTMLM(10, 4, 6, 5, rng)
	if m.ForwardFLOPs() <= 0 {
		t.Error("LM ForwardFLOPs should be positive")
	}
}

func TestSequentialForwardFLOPs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := tensor.ConvGeom{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	net := NewSequential(
		NewConv2D("conv", g, rng),
		NewFlatten("flat", 4*8*8),
		NewDense("fc", 4*8*8, 10, rng),
	)
	convFLOPs := 2.0 * 4 * 8 * 8 * 1 * 3 * 3
	denseFLOPs := 2.0 * 4 * 8 * 8 * 10
	if got := net.ForwardFLOPs(); math.Abs(got-(convFLOPs+denseFLOPs)) > 1 {
		t.Errorf("ForwardFLOPs = %v, want %v", got, convFLOPs+denseFLOPs)
	}
}

func TestBatchSize(t *testing.T) {
	img := &Batch{X: tensor.New(7, 1, 2, 2), Labels: make([]int, 7)}
	if img.Size() != 7 {
		t.Error("image batch size")
	}
	seq := &Batch{Seq: [][]int{{1, 2}, {3, 4}, {5, 6}}}
	if seq.Size() != 3 {
		t.Error("sequence batch size")
	}
}
