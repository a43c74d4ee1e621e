package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fedmp/internal/nn"
	"fedmp/internal/prune"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// Differential tests of two substitutions against what they replaced,
// compared through math.Float32bits: the fused aggregate (recoveredMean over
// Family.Accumulate) against Sparse + ResidualOf + Recover + meanWeights, and
// a network re-dimensioned in place with its optimiser (LocalNet) against a
// fresh BuildNet + NewSGD.

// benchTinySpec is the population benchmark's model (fedmp-bench, benchmark/).
func benchTinySpec() *zoo.Spec {
	return &zoo.Spec{
		Name: "bench-tiny", InC: 1, InH: 8, InW: 8, Classes: 6,
		Layers: []zoo.LayerSpec{
			{Kind: zoo.KindConv, Name: "conv1", Out: 6, K: 3, Stride: 1, Pad: 1},
			{Kind: zoo.KindReLU, Name: "relu1"},
			{Kind: zoo.KindMaxPool, Name: "pool1", Window: 2},
			{Kind: zoo.KindFlatten, Name: "flat"},
			{Kind: zoo.KindDense, Name: "fc1", Out: 24},
			{Kind: zoo.KindReLU, Name: "relu2"},
			{Kind: zoo.KindDense, Name: "out", Out: 6},
		},
	}
}

// algebraFamilies are the families the model-algebra tests cover: the four
// zoo classifiers, bench-tiny and the language model. No dataset is needed.
func algebraFamilies(t *testing.T) map[string]Family {
	t.Helper()
	fams := map[string]Family{
		"bench-tiny": &ImageFamily{Spec: benchTinySpec()},
		"lstm":       &LMFamily{Cfg: zoo.DefaultLMConfig()},
	}
	for _, id := range zoo.ImageModelIDs {
		spec, err := zoo.SpecFor(id)
		if err != nil {
			t.Fatal(err)
		}
		fams[string(id)] = &ImageFamily{Spec: spec}
	}
	return fams
}

// awkward values a weight can take without being non-finite.
var awkward = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
}

// sprinkle overwrites about one coordinate in eight with an awkward value.
func sprinkle(ws []*tensor.Tensor, rng *rand.Rand) {
	for _, w := range ws {
		for j := range w.Data {
			if rng.Intn(8) == 0 {
				w.Data[j] = awkward[rng.Intn(len(awkward))]
			}
		}
	}
}

// referenceMean is the aggregation this PR replaced, verbatim: per
// participant a recovered model plus (R2SP) its residual model, the residual
// being global − sparse as Assign used to store it, then meanWeights.
func referenceMean(t *testing.T, fam Family, global []*tensor.Tensor, outs []Output, r2sp bool) []*tensor.Tensor {
	t.Helper()
	sets := make([][]*tensor.Tensor, 0, len(outs))
	for _, o := range outs {
		rec, err := fam.Recover(o.Plan, o.NewWeights)
		if err != nil {
			t.Fatal(err)
		}
		if r2sp {
			sparse, err := fam.Sparse(global, o.Plan)
			if err != nil {
				t.Fatal(err)
			}
			residual := prune.ResidualOf(global, sparse)
			for i := range rec {
				rec[i].Add(residual[i])
			}
		}
		sets = append(sets, rec)
	}
	return meanWeights(nil, sets)
}

func requireSameBits(t *testing.T, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d tensors, want %d", len(got), len(want))
	}
	for i := range want {
		if !tensor.SameShape(got[i], want[i]) {
			t.Fatalf("tensor %d: shape %v, want %v", i, got[i].Shape, want[i].Shape)
		}
		for j := range want[i].Data {
			if g, w := got[i].Data[j], want[i].Data[j]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("tensor %d element %d: %v (%#x), want %v (%#x)",
					i, j, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	}
}

// trainedOutputs prunes global once per participant at rotating ratios and
// returns outputs whose weights moved away from the assignment, awkward
// values included.
func trainedOutputs(t *testing.T, fam Family, global []*tensor.Tensor, participants int, jitter float64, rng *rand.Rand) []Output {
	t.Helper()
	ratios := []float64{0, 0.1, 0.4, 0.79}
	outs := make([]Output, participants)
	for p := range outs {
		plan, _, subW, err := fam.MakePlan(global, ratios[(p+participants)%len(ratios)], jitter, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range subW {
			for j := range w.Data {
				w.Data[j] += 0.05 * float32(rng.NormFloat64())
			}
		}
		sprinkle(subW, rng)
		outs[p] = Output{Assignment: Assignment{Worker: p, Plan: plan, Base: global}, NewWeights: subW}
	}
	return outs
}

// TestFusedAggregateMatchesReferenceAlgebra holds the fused aggregate, its
// row blocks sharded over one, two and four executors, to the reference.
func TestFusedAggregateMatchesReferenceAlgebra(t *testing.T) {
	for name, fam := range algebraFamilies(t) {
		t.Run(name, func(t *testing.T) {
			for _, procs := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					rng := rand.New(rand.NewSource(23))
					global := fam.InitWeights(5)
					sprinkle(global, rng)
					for _, jitter := range []float64{0, 0.3} {
						for _, participants := range []int{1, 2, 7} {
							outs := trainedOutputs(t, fam, global, participants, jitter, rng)
							for _, r2sp := range []bool{true, false} {
								got, err := recoveredMean(fam, nil, global, outs, r2sp)
								if err != nil {
									t.Fatal(err)
								}
								t.Logf("jitter %v, %d participants, r2sp %v", jitter, participants, r2sp)
								requireSameBits(t, got, referenceMean(t, fam, global, outs, r2sp))
							}
						}
					}
				})
			}
		})
	}
}

// TestFusedAggregateNonFiniteGlobal documents the one divergence: at a kept
// coordinate of an infinite global the reference computes w + (Inf − Inf) =
// NaN, the fused sum reads the trained weight and never the global.
func TestFusedAggregateNonFiniteGlobal(t *testing.T) {
	fam := &ImageFamily{Spec: benchTinySpec()}
	global := fam.InitWeights(5)
	for _, g := range global {
		g.Data[0] = float32(math.Inf(1))
	}
	plan, _, subW, err := fam.MakePlan(global, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range subW {
		w.Data[0] = 0.5
	}
	outs := []Output{{Assignment: Assignment{Plan: plan, Base: global}, NewWeights: subW}}
	got, err := recoveredMean(fam, nil, global, outs, true)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceMean(t, fam, global, outs, true)
	for i := range got {
		if got[i].Data[0] != 0.5 || !math.IsNaN(float64(want[i].Data[0])) {
			t.Errorf("tensor %d: fused %v (want the trained 0.5), reference %v (want NaN)", i, got[i].Data[0], want[i].Data[0])
		}
	}
}

// TestQuantizedResidualBaseMatchesReference: under QuantizeResiduals the
// assignment's base is the int8 round trip of the residual model, and the
// fused sum over it equals recover + dequantized residual + meanWeights.
func TestQuantizedResidualBaseMatchesReference(t *testing.T) {
	fam := tinyFamily()
	cfg := normalizedCfg(t, quickCfg(StrategyFedMP, 3))
	cfg.QuantizeResiduals = true
	s, err := NewStrategy(fam, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := fixtureInfo(t, fam, 1, cfg.Workers)
	asg, err := s.Assign(info, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	outs := make([]Output, len(asg))
	sets := make([][]*tensor.Tensor, len(asg))
	for i, a := range asg {
		trained := nn.CloneWeights(a.Weights)
		for _, w := range trained {
			for j := range w.Data {
				w.Data[j] += 0.05 * float32(rng.NormFloat64())
			}
		}
		outs[i] = Output{Assignment: a, NewWeights: trained, TrainLoss: 1, Total: 1}
		sparse, err := fam.Sparse(info.Global, a.Plan)
		if err != nil {
			t.Fatal(err)
		}
		residual := prune.QuantizeResiduals(prune.ResidualOf(info.Global, sparse)).Dequantize()
		rec, err := fam.Recover(a.Plan, trained)
		if err != nil {
			t.Fatal(err)
		}
		for k := range rec {
			rec[k].Add(residual[k])
		}
		sets[i] = rec
	}
	got, err := s.Aggregate(info, outs, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, got, meanWeights(nil, sets))
}

// randomBatch draws n examples shaped for desc: images of the spec's input
// geometry with labels below its class count, or token sequences one longer
// than the config's window.
func randomBatch(desc any, n int, rng *rand.Rand) *nn.Batch {
	switch d := desc.(type) {
	case *zoo.Spec:
		x := tensor.New(n, d.InC, d.InH, d.InW)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(d.Classes)
		}
		return &nn.Batch{X: x, Labels: labels}
	case zoo.LMConfig:
		seqs := make([][]int, n)
		for i := range seqs {
			seqs[i] = make([]int, d.SeqLen+1)
			for j := range seqs[i] {
				seqs[i][j] = rng.Intn(d.Vocab)
			}
		}
		return &nn.Batch{Seq: seqs}
	}
	panic(fmt.Sprintf("no batches for %T", desc))
}

// otherGeometry returns desc with another input geometry — images at twice
// the side, sequences half as long — and seeded weights for it: the same
// architecture, every layer's plane or window different.
func otherGeometry(t *testing.T, desc any, rng *rand.Rand) (any, []*tensor.Tensor) {
	t.Helper()
	switch d := desc.(type) {
	case *zoo.Spec:
		spec := d.Clone()
		spec.InH, spec.InW = 2*d.InH, 2*d.InW
		net, err := zoo.Build(spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		return spec, nn.GetWeights(net)
	case zoo.LMConfig:
		d.SeqLen = d.SeqLen/2 + 1
		return d, nn.GetWeights(zoo.BuildLM(d, rng))
	}
	t.Fatalf("no other geometry for %T", desc)
	return nil, nil
}

// evalResult is one evaluation's mean loss and correct count.
type evalResult struct {
	loss    float64
	correct int
}

// trainOn loads ws into net, runs the batches through it — none for an
// evaluation-only step — and evaluates evalB, returning the training losses,
// the weights and the evaluation.
func trainOn(net nn.Network, opt *nn.SGD, ws []*tensor.Tensor, batches []*nn.Batch, evalB *nn.Batch) ([]float64, []*tensor.Tensor, evalResult) {
	nn.SetWeights(net, ws)
	losses := make([]float64, len(batches))
	for i, b := range batches {
		losses[i], _ = net.TrainStep(b)
		opt.Step(net.Params())
	}
	var ev evalResult
	ev.loss, ev.correct = net.Eval(evalB)
	return losses, nn.GetWeights(net), ev
}

// TestReusedNetworkTrainsLikeFresh is the oracle of in-place
// re-dimensioning: one executor's network, handed a seeded sequence of
// descriptions — a small sub-model, a larger one, a smaller one, the full
// model evaluated on 64 examples as an evaluation shard uses it, a smaller
// one, the same architecture at another input geometry, and back — trains
// and evaluates bit-identically to a fresh BuildNet + NewSGD at every step:
// the training losses, the trained weights, the evaluation loss and its
// correct count. It covers plain convolutions, the dense head, batch-norm
// (whose running statistics are frozen parameters SetWeights reloads),
// residual blocks and the LSTM, with momentum on (velocity re-dimensioned
// and zeroed in place) and off, and it demands the one network throughout.
func TestReusedNetworkTrainsLikeFresh(t *testing.T) {
	for name, fam := range algebraFamilies(t) {
		for _, momentum := range []float32{0.9, 0} {
			t.Run(fmt.Sprintf("%s/momentum=%v", name, momentum), func(t *testing.T) {
				rng := rand.New(rand.NewSource(11))
				global := fam.InitWeights(3)
				local := NewLocalNet(fam, 0.05, momentum, DefaultWeightDecay)
				var first nn.Network
				for step, s := range []struct {
					ratio           float64
					train, geometry bool
				}{
					{ratio: 0.5 + 0.3*rng.Float64(), train: true},
					{ratio: 0.1 * rng.Float64(), train: true},
					{ratio: 0.5 + 0.3*rng.Float64(), train: true},
					{ratio: 0},
					{ratio: 0.4 + 0.4*rng.Float64(), train: true},
					{ratio: 0.2 * rng.Float64(), train: true, geometry: true},
					{ratio: 0.5 + 0.3*rng.Float64(), train: true},
				} {
					_, desc, ws, err := fam.MakePlan(global, s.ratio, 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					if s.geometry {
						desc, ws = otherGeometry(t, desc, rng)
					}
					var batches []*nn.Batch
					for i := 0; s.train && i < 3; i++ {
						batches = append(batches, randomBatch(desc, 4, rng))
					}
					evalB := randomBatch(desc, evalChunkSize, rng)

					net, opt, err := local.Get(desc, 1)
					if err != nil {
						t.Fatal(err)
					}
					if first == nil {
						first = net
					} else if net != first {
						t.Fatalf("step %d (ratio %.3f) built a new network", step, s.ratio)
					}
					gotLoss, gotW, gotEval := trainOn(net, opt, ws, batches, evalB)

					fresh, err := fam.BuildNet(desc, 1)
					if err != nil {
						t.Fatal(err)
					}
					wantLoss, wantW, wantEval := trainOn(fresh, nn.NewSGD(0.05, momentum, DefaultWeightDecay), ws, batches, evalB)
					for i := range wantLoss {
						if math.Float64bits(gotLoss[i]) != math.Float64bits(wantLoss[i]) {
							t.Fatalf("step %d (ratio %.3f) batch %d: loss %v, fresh network %v", step, s.ratio, i, gotLoss[i], wantLoss[i])
						}
					}
					requireSameBits(t, gotW, wantW)
					if math.Float64bits(gotEval.loss) != math.Float64bits(wantEval.loss) || gotEval.correct != wantEval.correct {
						t.Fatalf("step %d (ratio %.3f): evaluation %+v, fresh network %+v", step, s.ratio, gotEval, wantEval)
					}
				}
			})
		}
	}
}

// dropoutFamily wraps a spec with a Dropout layer, whose mask stream lives in
// the rng the network was built with.
func dropoutFamily() *ImageFamily {
	return &ImageFamily{Spec: &zoo.Spec{
		Name: "dropout-net", InC: 1, InH: 8, InW: 8, Classes: 6,
		Layers: []zoo.LayerSpec{
			{Kind: zoo.KindConv, Name: "conv", Out: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: zoo.KindReLU, Name: "relu"},
			{Kind: zoo.KindFlatten, Name: "flat"},
			{Kind: zoo.KindDense, Name: "fc", Out: 16},
			{Kind: zoo.KindDropout, Name: "drop", Rate: 0.3},
			{Kind: zoo.KindDense, Name: "out", Out: 6},
		},
	}}
}

// TestDropoutSpecKeepsSeededBuild: a description with a Dropout layer is
// built from the seeded rng as before — same initial weights, hence the same
// position in the stream its masks continue from — and is never kept for
// re-dimensioning.
func TestDropoutSpecKeepsSeededBuild(t *testing.T) {
	fam := dropoutFamily()
	net, err := fam.BuildNet(fam.Spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := zoo.Build(fam.Spec, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, nn.GetWeights(net), nn.GetWeights(want))

	local := NewLocalNet(fam, 0.05, 0.9, 0)
	a, _, err := local.Get(fam.Spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := local.Get(fam.Spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || local.reusable {
		t.Error("a network with a Dropout layer was reused")
	}

	plain := &ImageFamily{Spec: benchTinySpec()}
	zeroed, err := plain.BuildNet(plain.Spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range nn.GetWeights(zeroed) {
		for _, v := range w.Data {
			if v != 0 {
				t.Fatal("a spec without RNG-keeping layers was not built zero-initialised")
			}
		}
	}
}
