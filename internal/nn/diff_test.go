package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedmp/internal/tensor"
)

// Differential tests: the rebuilt layers against the code they replaced, kept
// verbatim in parent_ref_test.go. Equality is bitwise (math.Float32bits) — no
// result bit may move — and the tests that reach a GEMM walk every
// micro-kernel tier this machine has.

func firstBitDiff(a, b []float32) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%s: element %d is %v (%#08x), parent %v (%#08x)", what, i,
			got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
	}
}

// forEachKernelTier runs f once per available micro-kernel tier and restores
// the tier the test started with.
func forEachKernelTier(t *testing.T, f func(tier string)) {
	t.Helper()
	start := tensor.KernelName()
	defer func() {
		if err := tensor.ForceKernel(start); err != nil {
			t.Fatal(err)
		}
	}()
	for _, tier := range tensor.Kernels() {
		if err := tensor.ForceKernel(tier); err != nil {
			t.Fatal(err)
		}
		f(tier)
	}
}

// convPair builds a Conv2D and its parent-code twin with identical weights
// and a bias that is zero on some channels (the forward pass skips those).
func convPair(g tensor.ConvGeom, rng *rand.Rand) (*Conv2D, *refConv2D) {
	c := NewConv2D("c", g, rng)
	for oc := range c.B.W.Data {
		if oc%3 != 1 {
			c.B.W.Data[oc] = float32(rng.NormFloat64())
		}
	}
	ref := &refConv2D{
		name: "ref", Geom: g,
		W: NewParam("ref/W", c.W.W.Clone()),
		B: NewParam("ref/b", c.B.W.Clone()),
	}
	return c, ref
}

// checkConvStep runs one forward/backward at batch size n through both
// layers, from identical non-zero gradient accumulators, and compares y, dx,
// dW and db; then repeats the backward pass through BackwardParams.
func checkConvStep(t *testing.T, what string, c *Conv2D, ref *refConv2D, n int, rng *rand.Rand) {
	t.Helper()
	g := c.Geom
	x := tensor.RandN(rng, n, g.InC, g.InH, g.InW)
	dy := tensor.RandN(rng, n, g.OutC, g.OutH(), g.OutW())
	seedGrads := func() {
		for i := range c.W.Grad.Data {
			c.W.Grad.Data[i] = float32(rng.NormFloat64())
		}
		for i := range c.B.Grad.Data {
			c.B.Grad.Data[i] = float32(rng.NormFloat64())
		}
		ref.W.Grad.CopyFrom(c.W.Grad)
		ref.B.Grad.CopyFrom(c.B.Grad)
	}
	requireSameBits(t, what+" y", c.Forward(x, true).Data, ref.Forward(x, true).Data)
	seedGrads()
	requireSameBits(t, what+" dx", c.Backward(dy).Data, ref.Backward(dy).Data)
	requireSameBits(t, what+" dW", c.W.Grad.Data, ref.W.Grad.Data)
	requireSameBits(t, what+" db", c.B.Grad.Data, ref.B.Grad.Data)
	seedGrads()
	c.BackwardParams(dy)
	ref.Backward(dy)
	requireSameBits(t, what+" dW (params only)", c.W.Grad.Data, ref.W.Grad.Data)
	requireSameBits(t, what+" db (params only)", c.B.Grad.Data, ref.B.Grad.Data)
}

func TestConv2DMatchesParent(t *testing.T) {
	channels := []int{1, 3, 8, 16}
	batches := []int{1, 2, 8}
	forEachKernelTier(t, func(tier string) {
		rng := rand.New(rand.NewSource(41))
		direct, blocked, i := 0, 0, 0
		for _, k := range []int{1, 3, 5} {
			for _, stride := range []int{1, 2} {
				for _, pad := range []int{0, 1, 2} {
					for _, inC := range channels {
						for _, outC := range channels {
							// Non-square input; the batch size rotates through
							// the grid and a second, different one follows on
							// the same layer so buffers are re-sliced.
							g := tensor.ConvGeom{InC: inC, InH: 6, InW: 9, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad}
							if g.InH+2*pad < k {
								continue
							}
							if 2*outC*inC*k*k*g.OutH()*g.OutW() < 2*32*32*32 {
								direct++
							} else {
								blocked++
							}
							c, ref := convPair(g, rng)
							what := fmt.Sprintf("%s %+v", tier, g)
							checkConvStep(t, what, c, ref, batches[i%3], rng)
							checkConvStep(t, what+" (reused)", c, ref, batches[(i+1)%3], rng)
							i++
						}
					}
				}
			}
		}
		if direct < 20 || blocked < 20 {
			t.Fatalf("grid has %d direct and %d blocked products; need plenty of both", direct, blocked)
		}
		// The zoo's shapes at full and pruned widths, a full evaluation chunk,
		// and geometries whose products cross the kc (rows or outArea > 256)
		// and nc (outArea > 512) panel boundaries.
		for _, tc := range []struct {
			g tensor.ConvGeom
			n int
		}{
			{tensor.ConvGeom{InC: 1, InH: 16, InW: 16, OutC: 8, KH: 5, KW: 5, Stride: 1, Pad: 2}, 64},
			{tensor.ConvGeom{InC: 1, InH: 16, InW: 16, OutC: 5, KH: 5, KW: 5, Stride: 1, Pad: 2}, 8},
			{tensor.ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 5, KW: 5, Stride: 1, Pad: 2}, 8},
			{tensor.ConvGeom{InC: 5, InH: 8, InW: 8, OutC: 11, KH: 5, KW: 5, Stride: 1, Pad: 2}, 8},
			{tensor.ConvGeom{InC: 32, InH: 4, InW: 4, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2},
			{tensor.ConvGeom{InC: 3, InH: 20, InW: 20, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2},
			{tensor.ConvGeom{InC: 2, InH: 24, InW: 23, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2},
		} {
			c, ref := convPair(tc.g, rng)
			checkConvStep(t, fmt.Sprintf("%s %+v", tier, tc.g), c, ref, tc.n, rng)
		}
	})
}

// TestFirstLayerSkipKeepsGradients: Sequential.TrainStep omits the first
// layer's input gradient; every parameter gradient, the loss and the correct
// count must equal those of a full backward pass through every layer.
func TestFirstLayerSkipKeepsGradients(t *testing.T) {
	build := map[string]func(rng *rand.Rand) (*Sequential, *Batch){
		"conv-first": func(rng *rand.Rand) (*Sequential, *Batch) {
			net := NewSequential(
				NewConv2D("c1", tensor.ConvGeom{InC: 1, InH: 16, InW: 16, OutC: 8, KH: 5, KW: 5, Stride: 1, Pad: 2}, rng),
				NewReLU("r1"),
				NewMaxPool2D("p1", 8, 16, 16, 2),
				NewConv2D("c2", tensor.ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 5, KW: 5, Stride: 1, Pad: 2}, rng),
				NewReLU("r2"),
				NewMaxPool2D("p2", 16, 8, 8, 2),
				NewFlatten("f", 16*4*4),
				NewDense("d", 16*4*4, 10, rng),
			)
			return net, imageBatch(rng, 8, 1, 16, 16, 10)
		},
		"dense-first": func(rng *rand.Rand) (*Sequential, *Batch) {
			net := NewSequential(NewDense("d1", 20, 12, rng), NewReLU("r"), NewDense("d2", 12, 4, rng))
			labels := make([]int, 8)
			for i := range labels {
				labels[i] = rng.Intn(4)
			}
			return net, &Batch{X: tensor.RandN(rng, 8, 20), Labels: labels}
		},
	}
	for name, mk := range build {
		forEachKernelTier(t, func(tier string) {
			skip, b := mk(rand.New(rand.NewSource(42)))
			full, _ := mk(rand.New(rand.NewSource(42)))
			loss, correct := skip.TrainStep(b)

			for _, p := range full.params {
				p.ZeroGrad()
			}
			wantLoss, wantCorrect, dy := full.loss.LossAndGrad(full.Forward(b.X, true), b.Labels)
			for i := len(full.layers) - 1; i >= 0; i-- {
				dy = full.layers[i].Backward(dy)
			}
			if loss != wantLoss || correct != wantCorrect {
				t.Fatalf("%s %s: TrainStep returned (%v, %d), full backward (%v, %d)", name, tier, loss, correct, wantLoss, wantCorrect)
			}
			for i, p := range skip.params {
				requireSameBits(t, name+" "+tier+" grad "+p.Name, p.Grad.Data, full.params[i].Grad.Data)
			}
		})
	}
}

// specials are the float32 values whose ReLU/MaxPool handling is pinned.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.NaN()), -float32(math.NaN()),
	math.Float32frombits(0x7FC12345), math.Float32frombits(0xFF800001), // NaNs with payloads
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.MaxFloat32, -math.MaxFloat32, 1, -1,
}

func TestReLUMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := tensor.RandN(rng, 4, 50)
	copy(x.Data, specials)
	// Every special meets every special as (input, upstream gradient).
	dy := tensor.RandN(rng, 4, 50)
	for i := range dy.Data {
		if i < len(specials)*len(specials) {
			x.Data[i] = specials[i/len(specials)]
			dy.Data[i] = specials[i%len(specials)]
		}
	}
	r, ref := NewReLU("r"), &refReLU{name: "ref"}
	y := r.Forward(x, true)
	requireSameBits(t, "ReLU y", y.Data, ref.Forward(x, true).Data)
	requireSameBits(t, "ReLU dx", r.Backward(dy).Data, ref.Backward(dy).Data)

	// The pins, spelled out: NaN, −0, −Inf and negatives give +0; +Inf and
	// the smallest subnormal pass; the gradient follows the same gate.
	pin := tensor.FromSlice(append([]float32(nil), specials...), 1, len(specials))
	out := r.Forward(pin, true).Data
	for i, v := range specials {
		want := uint32(0)
		if v > 0 {
			want = math.Float32bits(v)
		}
		if got := math.Float32bits(out[i]); got != want {
			t.Errorf("ReLU(%v = %#08x) = %#08x, want %#08x", v, math.Float32bits(v), got, want)
		}
	}
	ones := tensor.Full(1, 1, len(specials))
	for i, d := range r.Backward(ones).Data {
		if want := specials[i] > 0; (d == 1) != want || (d != 0 && d != 1) {
			t.Errorf("ReLU gradient gate for input %v is %v, want open=%v", specials[i], d, want)
		}
	}
}

func TestMaxPool2x2MatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const n, c, h, w = 16, 4, 6, 8
	x := tensor.New(n, c, h, w)
	// Window i holds arrangement i of five specials over its four positions
	// (5⁴ = 625 arrangements, 768 windows), so a NaN, a −0/+0 tie and −Inf
	// meet every position; the windows left over get coarse random values,
	// which tie often.
	vals := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), 1, float32(math.Inf(-1))}
	for i := 0; i < n*c*h*w/4; i++ {
		plane, cell := i/(h*w/4), i%(h*w/4)
		oh, ow := cell/(w/2), cell%(w/2)
		code := i
		for pos := 0; pos < 4; pos++ {
			v := float32(rng.Intn(3))
			if i < 625 {
				v = vals[code%len(vals)]
				code /= len(vals)
			}
			x.Data[plane*h*w+(2*oh+pos/2)*w+2*ow+pos%2] = v
		}
	}
	m := NewMaxPool2D("p", c, h, w, 2)
	ref := NewMaxPool2D("ref", c, h, w, 2)
	requireSameBits(t, "MaxPool y", m.Forward(x, true).Data, refMaxPoolForward(ref, x, true).Data)
	for i := range m.argmax {
		if m.argmax[i] != ref.argmax[i] {
			t.Fatalf("MaxPool argmax[%d] = %d, parent %d", i, m.argmax[i], ref.argmax[i])
		}
	}

	// Pins: a tie keeps the first position in scan order; a NaN wins only
	// from the first position.
	for _, tc := range []struct {
		win  [4]float32
		want int
	}{
		{[4]float32{2, 2, 2, 2}, 0},
		{[4]float32{1, 2, 2, 1}, 1},
		{[4]float32{0, float32(math.Copysign(0, -1)), 0, 0}, 0},
		{[4]float32{float32(math.Copysign(0, -1)), 0, 0, 0}, 0},
		{[4]float32{float32(math.NaN()), 5, 6, 7}, 0},
		{[4]float32{1, float32(math.NaN()), 0, 3}, 3},
		{[4]float32{1, 0, float32(math.NaN()), 3}, 3},
		{[4]float32{3, 0, 1, float32(math.NaN())}, 0},
	} {
		p := NewMaxPool2D("pin", 1, 2, 2, 2)
		in := tensor.FromSlice(tc.win[:], 1, 1, 2, 2)
		y := p.Forward(in, true)
		if int(p.argmax[0]) != tc.want || math.Float32bits(y.Data[0]) != math.Float32bits(tc.win[tc.want]) {
			t.Errorf("MaxPool %v picked position %d (%v), want %d", tc.win, p.argmax[0], y.Data[0], tc.want)
		}
	}
}

func TestSGDStepMatchesParent(t *testing.T) {
	for _, momentum := range []float32{0, 0.9} {
		for _, decay := range []float32{0, 2e-3} {
			rng := rand.New(rand.NewSource(45))
			mk := func() []*Param {
				r := rand.New(rand.NewSource(46))
				return []*Param{
					NewParam("w", tensor.RandN(r, 7, 13)),
					NewFrozenParam("frozen", tensor.RandN(r, 5)),
					NewParam("b", tensor.RandN(r, 13)),
				}
			}
			got, want := mk(), mk()
			opt, refOpt := NewSGD(0.05, momentum, decay), NewSGD(0.05, momentum, decay)
			for step := 0; step < 5; step++ {
				for i, p := range got {
					for j := range p.Grad.Data {
						p.Grad.Data[j] = float32(rng.NormFloat64())
					}
					if step == 2 { // specials travel through the update too
						copy(p.Grad.Data, specials)
					}
					want[i].Grad.CopyFrom(p.Grad)
				}
				opt.Step(got)
				refSGDStep(refOpt, want)
				for i, p := range got {
					what := "momentum " + p.Name
					requireSameBits(t, what+" weights", p.W.Data, want[i].W.Data)
					requireSameBits(t, what+" gradient left untouched", p.Grad.Data, want[i].Grad.Data)
				}
			}
		}
	}
}

// lstmPair builds an LSTM and its parent-code twin with identical weights.
func lstmPair(d, h int, rng *rand.Rand) (*LSTM, *refLSTM) {
	l := NewLSTM("l", d, h, rng)
	for i := range l.B.W.Data {
		l.B.W.Data[i] += float32(rng.NormFloat64())
	}
	ref := &refLSTM{
		name: "ref", D: d, H: h,
		Wx: NewParam("ref/Wx", l.Wx.W.Clone()),
		Wh: NewParam("ref/Wh", l.Wh.W.Clone()),
		B:  NewParam("ref/b", l.B.W.Clone()),
	}
	return l, ref
}

// TestLSTMMatchesParent runs forward and backward through the packed-operand
// LSTM on every tier and through the parent's code on the generic tier —
// whose small products are the scalar loops the parent ran — from identical
// non-zero gradient accumulators, and compares the hidden states, dx and
// every gradient. The grid has products on both sides of smallGEMMFLOPs
// (the batch of 64 is the evaluation chunk) and hidden sizes that leave
// every kind of column tail; each layer pair then sees a different shape and
// the first one again, so buffers and packed operands are reused across a
// shape change.
func TestLSTMMatchesParent(t *testing.T) {
	defer func(tier string) {
		if err := tensor.ForceKernel(tier); err != nil {
			t.Fatal(err)
		}
	}(tensor.KernelName())
	type run struct{ n, steps int }
	type result struct{ out, dx, dwx, dwh, db []float32 }
	step := func(fwd func(*tensor.Tensor) *tensor.Tensor, bwd func(*tensor.Tensor) *tensor.Tensor,
		params []*Param, x, dy *tensor.Tensor, seed int64) result {
		rng := rand.New(rand.NewSource(seed))
		for _, p := range params {
			for i := range p.Grad.Data {
				p.Grad.Data[i] = float32(rng.NormFloat64())
			}
		}
		out := fwd(x).Clone()
		dx := bwd(dy).Clone()
		return result{out.Data, dx.Data, params[0].Grad.Clone().Data, params[1].Grad.Clone().Data, params[2].Grad.Clone().Data}
	}
	for _, d := range []int{7, 16} {
		for _, h := range []int{5, 13, 19, 32} {
			rng := rand.New(rand.NewSource(int64(100*d + h)))
			runs := []run{{1, 1}, {8, 12}, {16, 12}, {64, 12}, {8, 1}, {64, 1}, {1, 12}, {1, 1}}
			type input struct{ x, dy *tensor.Tensor }
			inputs := make([]input, len(runs))
			for i, r := range runs {
				inputs[i] = input{tensor.RandN(rng, r.n, r.steps, d), tensor.RandN(rng, r.n, r.steps, h)}
			}
			// The parent's results, layer state carried across the runs.
			if err := tensor.ForceKernel("generic"); err != nil {
				t.Fatal(err)
			}
			_, ref := lstmPair(d, h, rand.New(rand.NewSource(int64(d+h))))
			want := make([]result, len(runs))
			for i := range runs {
				want[i] = step(ref.Forward, ref.Backward, []*Param{ref.Wx, ref.Wh, ref.B}, inputs[i].x, inputs[i].dy, int64(i))
			}
			forEachKernelTier(t, func(tier string) {
				l, _ := lstmPair(d, h, rand.New(rand.NewSource(int64(d+h))))
				for i, r := range runs {
					got := step(l.Forward, l.Backward, l.Params(), inputs[i].x, inputs[i].dy, int64(i))
					what := fmt.Sprintf("%s N=%d T=%d D=%d H=%d (run %d)", tier, r.n, r.steps, d, h, i)
					requireSameBits(t, what+" out", got.out, want[i].out)
					requireSameBits(t, what+" dx", got.dx, want[i].dx)
					requireSameBits(t, what+" dWx", got.dwx, want[i].dwx)
					requireSameBits(t, what+" dWh", got.dwh, want[i].dwh)
					requireSameBits(t, what+" db", got.db, want[i].db)
				}
			})
		}
	}
}

// TestSoftmaxCEMatchesParent compares the head — one ExpInto sweep per row,
// its results summed and reused for the gradient — with the parent's, which
// called math.Exp once per logit for the sum and again for the gradient, on
// every tier: rows of one class, the classifier heads' 6 and 10, the LM's 80
// and one past it, with and without the gradient, over plain logits, logits
// spread far enough for exp to underflow, and rows holding −Inf and NaN.
func TestSoftmaxCEMatchesParent(t *testing.T) {
	negInf, nan := float32(math.Inf(-1)), float32(math.NaN())
	forEachKernelTier(t, func(tier string) {
		rng := rand.New(rand.NewSource(17))
		var head SoftmaxCE // one head across every shape: its scratch row regrows
		for _, k := range []int{1, 6, 10, 80, 81} {
			for _, n := range []int{1, 5, 16} {
				for _, kind := range []string{"plain", "wide", "-Inf", "NaN"} {
					logits := tensor.RandN(rng, n, k)
					labels := make([]int, n)
					for i := range labels {
						labels[i] = rng.Intn(k)
					}
					for i := range logits.Data {
						switch {
						case kind == "wide":
							logits.Data[i] *= 400
						case kind == "-Inf" && rng.Intn(4) == 0:
							logits.Data[i] = negInf
						case kind == "NaN" && rng.Intn(9) == 0:
							logits.Data[i] = nan
						}
					}
					what := fmt.Sprintf("%s K=%d N=%d %s logits", tier, k, n, kind)
					wantLoss, wantCorrect, _ := refSoftmaxCE(logits, labels, nil)
					loss, correct := head.Loss(logits, labels)
					if math.Float64bits(loss) != math.Float64bits(wantLoss) || correct != wantCorrect {
						t.Fatalf("%s: Loss = %v, %d correct; parent %v, %d", what, loss, correct, wantLoss, wantCorrect)
					}
					wantLoss, wantCorrect, wantGrad := refSoftmaxCE(logits, labels, tensor.New(n, k))
					loss, correct, grad := head.LossAndGrad(logits, labels)
					if math.Float64bits(loss) != math.Float64bits(wantLoss) || correct != wantCorrect {
						t.Fatalf("%s: LossAndGrad = %v, %d correct; parent %v, %d", what, loss, correct, wantLoss, wantCorrect)
					}
					requireSameBits(t, what+" gradient", grad.Data, wantGrad.Data)
				}
			}
		}
	})
}
