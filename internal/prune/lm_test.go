package prune

import (
	"math"
	"math/rand"
	"testing"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

func lmFixture(t *testing.T, seed int64) (zoo.LMConfig, []*tensor.Tensor) {
	t.Helper()
	cfg := zoo.LMConfig{Vocab: 20, Embed: 6, Hidden: 8, SeqLen: 5}
	m := zoo.BuildLM(cfg, rand.New(rand.NewSource(seed)))
	return cfg, nn.GetWeights(m)
}

func TestBuildLMPlan(t *testing.T) {
	cfg, ws := lmFixture(t, 1)
	plan, err := BuildLMPlan(cfg, ws, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Kept1) != 4 || len(plan.Kept2) != 4 {
		t.Errorf("kept %d/%d hidden units, want 4/4", len(plan.Kept1), len(plan.Kept2))
	}
	for _, k := range append(append([]int{}, plan.Kept1...), plan.Kept2...) {
		if k < 0 || k >= cfg.Hidden {
			t.Errorf("kept unit %d out of range", k)
		}
	}
	if _, err := BuildLMPlan(cfg, ws, 1.0); err == nil {
		t.Error("LM ratio 1.0 accepted")
	}
	if _, err := BuildLMPlan(cfg, ws[:3], 0.5); err == nil {
		t.Error("short weight list accepted")
	}
}

func TestShrinkLMProducesTrainableModel(t *testing.T) {
	cfg, ws := lmFixture(t, 2)
	plan, err := BuildLMPlan(cfg, ws, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	subCfg, subW, err := ShrinkLM(cfg, ws, plan)
	if err != nil {
		t.Fatal(err)
	}
	if subCfg.Hidden != 4 {
		t.Errorf("sub hidden %d, want 4", subCfg.Hidden)
	}
	m := zoo.BuildLM(subCfg, rand.New(rand.NewSource(3)))
	nn.SetWeights(m, subW)
	seq := make([]int, cfg.SeqLen+1)
	for i := range seq {
		seq[i] = i % cfg.Vocab
	}
	loss, _ := m.TrainStep(&nn.Batch{Seq: [][]int{seq}})
	if math.IsNaN(loss) {
		t.Error("pruned LM training loss is NaN")
	}
	if nn.WeightsSize(subW) >= nn.WeightsSize(ws) {
		t.Error("pruned LM not smaller")
	}
}

func TestLMRoundTripIdentities(t *testing.T) {
	cfg, ws := lmFixture(t, 4)
	for _, ratio := range []float64{0, 0.25, 0.5, 0.75} {
		plan, err := BuildLMPlan(cfg, ws, ratio)
		if err != nil {
			t.Fatal(err)
		}
		subCfg, subW, err := ShrinkLM(cfg, ws, plan)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := RecoverLM(cfg, subCfg, subW, plan)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := SparseLM(cfg, ws, plan)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ws {
			if !tensor.Equal(rec[i], sparse[i]) {
				t.Errorf("ratio %v: tensor %d: RecoverLM(ShrinkLM) != SparseLM", ratio, i)
			}
		}
		// Residual identity.
		res := ResidualOf(ws, sparse)
		for i := range ws {
			sum := sparse[i].Clone()
			sum.Add(res[i])
			if !tensor.Equal(sum, ws[i]) {
				t.Errorf("ratio %v: tensor %d: sparse + residual != global", ratio, i)
			}
		}
		if ratio == 0 {
			for i := range ws {
				if !tensor.Equal(sparse[i], ws[i]) {
					t.Errorf("ratio 0: tensor %d sparse != global", i)
				}
			}
		}
	}
}

func TestLMEmbeddingAndHeadNeverPruned(t *testing.T) {
	cfg, ws := lmFixture(t, 5)
	plan, _ := BuildLMPlan(cfg, ws, 0.75)
	_, subW, err := ShrinkLM(cfg, ws, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(subW[0], ws[0]) {
		t.Error("embedding table changed by pruning")
	}
	if !tensor.Equal(subW[8], ws[8]) {
		t.Error("output bias changed by pruning")
	}
	if subW[7].Shape[0] != cfg.Vocab {
		t.Error("vocabulary head rows pruned")
	}
}

func TestGateRows(t *testing.T) {
	rows := gateRows([]int{0, 2}, 4)
	want := []int{0, 2, 4, 6, 8, 10, 12, 14}
	if !equalInts(rows, want) {
		t.Errorf("gateRows = %v, want %v", rows, want)
	}
}

// TestLMContextPlansMatchPerWorkerConstruction mirrors the image-model test:
// shared-context plans from pre-drawn noise equal the one-at-a-time plans —
// lstm1's scores jittered from the stream, then lstm2's, then the stable-sort
// selection — from the same stream.
func TestLMContextPlansMatchPerWorkerConstruction(t *testing.T) {
	cfg := zoo.DefaultLMConfig()
	weights := nn.GetWeights(zoo.BuildLM(cfg, rand.New(rand.NewSource(5))))
	ratios := []float64{0, 0.25, 0.79}
	refRng, rng := rand.New(rand.NewSource(31)), rand.New(rand.NewSource(31))
	ctx, err := NewLMContext(cfg, weights)
	if err != nil {
		t.Fatal(err)
	}
	var noise []float64
	for range ratios {
		noise = DrawNoise(noise, ctx.NoiseLen(), 0.3, rng)
	}
	for w, ratio := range ratios {
		var want [2][]int
		for l, scores := range [][]float64{ctx.s1, ctx.s2} {
			jittered := append([]float64(nil), scores...)
			for i := range jittered {
				jittered[i] *= math.Exp(0.3 * refRng.NormFloat64())
			}
			want[l] = topKSortRef(jittered, keepCount(cfg.Hidden, ratio))
		}
		got, err := ctx.Plan(ratio, 0.3, noise[w*ctx.NoiseLen():(w+1)*ctx.NoiseLen()])
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(got.Kept1, want[0]) || !equalInts(got.Kept2, want[1]) {
			t.Fatalf("worker %d: kept %v/%v, one-at-a-time %v/%v", w, got.Kept1, got.Kept2, want[0], want[1])
		}
	}
	if rng.Int63() != refRng.Int63() {
		t.Error("noise stream left at a different position")
	}
}

func TestAccumulateLMRejectsMalformedModels(t *testing.T) {
	cfg := zoo.DefaultLMConfig()
	weights := nn.GetWeights(zoo.BuildLM(cfg, rand.New(rand.NewSource(5))))
	plan, err := BuildLMPlan(cfg, weights, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	_, sub, err := ShrinkLM(cfg, weights, plan)
	if err != nil {
		t.Fatal(err)
	}
	acc := make([]*tensor.Tensor, len(weights))
	for i, w := range weights {
		acc[i] = tensor.New(w.Shape...)
	}
	if err := AccumulateLM(cfg, acc, sub, weights, plan); err != nil {
		t.Fatalf("well-formed accumulate: %v", err)
	}
	if err := AccumulateLM(cfg, acc, weights, weights, plan); err == nil {
		t.Error("full-shape sub-model accepted")
	}
	if err := AccumulateLM(cfg, acc, sub, weights, &LMPlan{Kept1: []int{3, 1}, Kept2: plan.Kept2}); err == nil {
		t.Error("unsorted plan accepted")
	}
	if err := AccumulateLM(cfg, acc[:4], sub, weights, plan); err == nil {
		t.Error("short sum accepted")
	}
}
