package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedmp/internal/data"
	"fedmp/internal/nn"
	"fedmp/internal/prune"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// Differential tests of this PR's two substitutions against the algebra they
// replaced, compared through math.Float32bits: the fused aggregate
// (recoveredMean over Family.Accumulate) against Sparse + ResidualOf +
// Recover + meanWeights, and a reused network with its optimiser (NetCache)
// against a fresh BuildNet + NewSGD.

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
	return meanWeights(sets)
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

func TestFusedAggregateMatchesReferenceAlgebra(t *testing.T) {
	for name, fam := range algebraFamilies(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			global := fam.InitWeights(5)
			sprinkle(global, rng)
			for _, jitter := range []float64{0, 0.3} {
				for _, participants := range []int{1, 2, 7} {
					outs := trainedOutputs(t, fam, global, participants, jitter, rng)
					for _, r2sp := range []bool{true, false} {
						got, err := recoveredMean(fam, global, outs, r2sp)
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
	got, err := recoveredMean(fam, global, outs, true)
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
	requireSameBits(t, got, meanWeights(sets))
}

// reuseCase is one family with a batch source for the reuse test.
type reuseCase struct {
	fam Family
	src Source
}

func reuseCases(t *testing.T) map[string]reuseCase {
	t.Helper()
	cases := map[string]reuseCase{}
	for _, id := range []zoo.ModelID{zoo.ModelCNN, zoo.ModelVGG, zoo.ModelResNet} {
		fam, err := NewImageFamily(id)
		if err != nil {
			t.Fatal(err)
		}
		cases[string(id)] = reuseCase{fam: fam}
	}
	corpus := data.DefaultCorpusConfig()
	cases["lstm"] = reuseCase{fam: NewLMFamily(zoo.DefaultLMConfig(), corpus)}
	for name, c := range cases {
		srcs, err := c.fam.Sources(1, NonIID{}, 4, 9)
		if err != nil {
			t.Fatal(err)
		}
		c.src = srcs[0]
		cases[name] = c
	}
	return cases
}

// trainOn loads ws into net and runs the batches through it, returning the
// losses and the trained weights.
func trainOn(net nn.Network, opt *nn.SGD, ws []*tensor.Tensor, batches []*nn.Batch) ([]float64, []*tensor.Tensor) {
	nn.SetWeights(net, ws)
	losses := make([]float64, len(batches))
	for i, b := range batches {
		losses[i], _ = net.TrainStep(b)
		opt.Step(net.Params())
	}
	return losses, nn.GetWeights(net)
}

// TestReusedNetworkTrainsLikeFresh: a network taken from the cache again
// after it trained other weights, and after the cache served a different
// shape in between, trains bit-identically to a fresh BuildNet + NewSGD —
// for plain convolutions, batch-norm (whose running statistics are frozen
// parameters SetWeights reloads), residual blocks and the LSTM, with
// momentum on (velocity zeroed in place) and off.
func TestReusedNetworkTrainsLikeFresh(t *testing.T) {
	for name, c := range reuseCases(t) {
		for _, momentum := range []float32{0.9, 0} {
			t.Run(fmt.Sprintf("%s/momentum=%v", name, momentum), func(t *testing.T) {
				global := c.fam.InitWeights(3)
				_, fullDesc, fullW, err := c.fam.MakePlan(global, 0, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				_, subDesc, subW, err := c.fam.MakePlan(global, 0.4, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				batches := []*nn.Batch{c.src.Next(), c.src.Next(), c.src.Next()}
				other := c.fam.InitWeights(8)

				cache := NewNetCache(c.fam, 0.05, momentum, DefaultWeightDecay)
				var nets []nn.Network
				for _, step := range []struct {
					desc any
					ws   []*tensor.Tensor
				}{
					{fullDesc, other}, // first use, other weights
					{fullDesc, fullW}, // reused straight away
					{subDesc, subW},   // a shape change ...
					{fullDesc, fullW}, // ... and back
					{subDesc, subW},
				} {
					net, opt, err := cache.Get(step.desc, 1)
					if err != nil {
						t.Fatal(err)
					}
					nets = append(nets, net)
					gotLoss, gotW := trainOn(net, opt, step.ws, batches)

					fresh, err := c.fam.BuildNet(step.desc, 1)
					if err != nil {
						t.Fatal(err)
					}
					wantLoss, wantW := trainOn(fresh, nn.NewSGD(0.05, momentum, DefaultWeightDecay), step.ws, batches)
					for i := range wantLoss {
						if math.Float64bits(gotLoss[i]) != math.Float64bits(wantLoss[i]) {
							t.Fatalf("step %d loss %v, fresh network %v", i, gotLoss[i], wantLoss[i])
						}
					}
					requireSameBits(t, gotW, wantW)
				}
				if nets[1] != nets[0] {
					t.Error("the second assignment of a shape did not reuse the first's network")
				}
				// The zoo's larger models exceed the cache budget on their own,
				// so only the smaller ones survive the detour through another
				// shape.
				if fits := nn.WeightsSize(fullW)+nn.WeightsSize(subW) <= netCacheParams; fits && (nets[3] != nets[0] || nets[4] != nets[2]) {
					t.Error("networks within the budget were rebuilt after a shape change")
				}
			})
		}
	}
}

// TestNetCacheBounded: the cache never holds more than its parameter budget
// (beyond the one network in use) and evicts least recently used first.
func TestNetCacheBounded(t *testing.T) {
	fam, err := NewImageFamily(zoo.ModelAlexNet)
	if err != nil {
		t.Fatal(err)
	}
	global := fam.InitWeights(1)
	cache := NewNetCache(fam, 0.05, 0.9, 0)
	for _, ratio := range []float64{0, 0.2, 0.4, 0.6, 0.2} {
		_, desc, _, err := fam.MakePlan(global, ratio, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		net, _, err := cache.Get(desc, 1)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, e := range cache.entries {
			total += e.params
		}
		if total != cache.params {
			t.Fatalf("cache accounts %d parameters, holds %d", cache.params, total)
		}
		if last := cache.entries[len(cache.entries)-1]; last.net != net {
			t.Fatal("the network just handed out is not the most recent entry")
		}
		if cache.params > netCacheParams && len(cache.entries) > 1 {
			t.Fatalf("ratio %v: %d parameters cached in %d networks, budget %d", ratio, cache.params, len(cache.entries), netCacheParams)
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
// position in the stream its masks continue from — and is never cached.
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

	cache := NewNetCache(fam, 0.05, 0.9, 0)
	a, _, err := cache.Get(fam.Spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := cache.Get(fam.Spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || len(cache.entries) != 0 {
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
