package prune

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// buildModel constructs a model and returns its spec and weights.
func buildModel(t *testing.T, id zoo.ModelID, seed int64) (*zoo.Spec, []*tensor.Tensor, *nn.Sequential) {
	t.Helper()
	spec, err := zoo.SpecFor(id)
	if err != nil {
		t.Fatal(err)
	}
	net, err := zoo.Build(spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return spec, nn.GetWeights(net), net
}

func TestBuildPlanRatioZeroKeepsEverything(t *testing.T) {
	for _, id := range zoo.ImageModelIDs {
		spec, ws, _ := buildModel(t, id, 1)
		plan, err := BuildPlan(spec, ws, 0)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		frac, err := KeptFraction(spec, ws, plan)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if frac != 1 {
			t.Errorf("%s: ratio 0 kept fraction %v, want 1", id, frac)
		}
	}
}

func TestBuildPlanRatioRange(t *testing.T) {
	spec, ws, _ := buildModel(t, zoo.ModelCNN, 1)
	if _, err := BuildPlan(spec, ws, -0.1); err == nil {
		t.Error("negative ratio accepted")
	}
	if _, err := BuildPlan(spec, ws, 1.0); err == nil {
		t.Error("ratio 1.0 accepted")
	}
}

func TestPlanKeepsMostImportantStructures(t *testing.T) {
	spec, ws, net := buildModel(t, zoo.ModelCNN, 2)
	// Make filter 3 of conv1 overwhelmingly important and filter 0 tiny.
	conv := net.Layers()[0].(*nn.Conv2D)
	per := conv.Geom.InC * conv.Geom.KH * conv.Geom.KW
	for j := 0; j < per; j++ {
		conv.W.W.Data[3*per+j] = 10
		conv.W.W.Data[0*per+j] = 0.0001
	}
	ws = nn.GetWeights(net)
	plan, err := BuildPlan(spec, ws, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	kept := plan.Kept["conv1"]
	has := func(x int) bool {
		for _, k := range kept {
			if k == x {
				return true
			}
		}
		return false
	}
	if !has(3) {
		t.Errorf("high-importance filter 3 pruned; kept %v", kept)
	}
	if has(0) {
		t.Errorf("near-zero filter 0 kept; kept %v", kept)
	}
	_ = spec
}

func TestFinalDenseNeverPruned(t *testing.T) {
	for _, id := range zoo.ImageModelIDs {
		spec, ws, _ := buildModel(t, id, 3)
		plan, err := BuildPlan(spec, ws, 0.8)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := plan.Kept["out"]
		if len(out) != spec.Classes {
			t.Errorf("%s: output layer pruned to %d of %d", id, len(out), spec.Classes)
		}
	}
}

func TestResidualTailFollowsBlockInput(t *testing.T) {
	spec, ws, _ := buildModel(t, zoo.ModelResNet, 4)
	plan, err := BuildPlan(spec, ws, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// block1's last conv must keep exactly the channels pool0's input
	// (i.e. the stem conv) kept.
	if !equalInts(plan.Kept["block1/conv2"], plan.Kept["stem"]) {
		t.Errorf("block1/conv2 kept %v, stem kept %v", plan.Kept["block1/conv2"], plan.Kept["stem"])
	}
	if !equalInts(plan.Kept["block2/conv2"], plan.Kept["stage2"]) {
		t.Errorf("block2/conv2 kept %v, stage2 kept %v", plan.Kept["block2/conv2"], plan.Kept["stage2"])
	}
	// Inner convs are free to choose their own channels.
	if len(plan.Kept["block1/conv1"]) >= 16 {
		t.Errorf("block1/conv1 not pruned at ratio 0.5: %v", plan.Kept["block1/conv1"])
	}
}

func TestBatchNormFollowsConv(t *testing.T) {
	spec, ws, _ := buildModel(t, zoo.ModelVGG, 5)
	plan, err := BuildPlan(spec, ws, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]string{{"conv1a", "bn1a"}, {"conv2b", "bn2b"}, {"conv3a", "bn3a"}}
	for _, p := range pairs {
		if !equalInts(plan.Kept[p[0]], plan.Kept[p[1]]) {
			t.Errorf("%s kept %v but %s kept %v", p[0], plan.Kept[p[0]], p[1], plan.Kept[p[1]])
		}
	}
}

func TestShrinkProducesValidTrainableSubModel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, id := range zoo.ImageModelIDs {
		spec, ws, _ := buildModel(t, id, 6)
		for _, ratio := range []float64{0.25, 0.5, 0.75} {
			plan, err := BuildPlan(spec, ws, ratio)
			if err != nil {
				t.Fatalf("%s/%v: %v", id, ratio, err)
			}
			subSpec, subW, err := Shrink(spec, ws, plan)
			if err != nil {
				t.Fatalf("%s/%v: Shrink: %v", id, ratio, err)
			}
			subNet, err := zoo.Build(subSpec, rng)
			if err != nil {
				t.Fatalf("%s/%v: Build(sub): %v", id, ratio, err)
			}
			nn.SetWeights(subNet, subW) // panics on any shape mismatch
			// The sub-model must train.
			x := tensor.RandN(rng, 2, spec.InC, spec.InH, spec.InW)
			labels := []int{0, 1}
			loss, _ := subNet.TrainStep(&nn.Batch{X: x, Labels: labels})
			if math.IsNaN(loss) {
				t.Fatalf("%s/%v: sub-model loss NaN", id, ratio)
			}
			// And must be smaller.
			if nn.WeightsSize(subW) >= nn.WeightsSize(ws) {
				t.Errorf("%s/%v: sub-model not smaller (%d vs %d)",
					id, ratio, nn.WeightsSize(subW), nn.WeightsSize(ws))
			}
		}
	}
}

func TestRecoverShrinkEqualsSparse(t *testing.T) {
	for _, id := range zoo.ImageModelIDs {
		spec, ws, _ := buildModel(t, id, 7)
		plan, err := BuildPlan(spec, ws, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		_, subW, err := Shrink(spec, ws, plan)
		if err != nil {
			t.Fatal(err)
		}
		recovered, err := Recover(spec, subW, plan)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := Sparse(spec, ws, plan)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ws {
			if !tensor.Equal(recovered[i], sparse[i]) {
				t.Errorf("%s: tensor %d: Recover(Shrink(x)) != Sparse(x)", id, i)
			}
		}
	}
}

func TestSparsePlusResidualEqualsGlobal(t *testing.T) {
	for _, id := range zoo.ImageModelIDs {
		spec, ws, _ := buildModel(t, id, 8)
		plan, err := BuildPlan(spec, ws, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := Sparse(spec, ws, plan)
		if err != nil {
			t.Fatal(err)
		}
		residual := ResidualOf(ws, sparse)
		for i := range ws {
			sum := sparse[i].Clone()
			sum.Add(residual[i])
			if !tensor.Equal(sum, ws[i]) {
				t.Errorf("%s: tensor %d: sparse + residual != global", id, i)
			}
			// Residual must be zero exactly at kept coordinates: verify via
			// Hadamard product with the sparse mask.
			prod := sparse[i].Clone()
			prod.Mul(residual[i])
			for j, v := range prod.Data {
				// sparse is zero at pruned coords, residual zero at kept
				// coords, so the product must vanish everywhere — except
				// that a *kept* coordinate with value exactly 0 also makes
				// the product 0, which is fine.
				if v != 0 {
					t.Errorf("%s: tensor %d coord %d: sparse·residual = %v", id, i, j, v)
					break
				}
			}
		}
	}
}

func TestPruneErrorMonotoneInRatio(t *testing.T) {
	spec, ws, _ := buildModel(t, zoo.ModelAlexNet, 9)
	var prev float64
	for _, ratio := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		plan, err := BuildPlan(spec, ws, ratio)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := Sparse(spec, ws, plan)
		if err != nil {
			t.Fatal(err)
		}
		q := PruneError(ws, sparse)
		if ratio == 0 && q != 0 {
			t.Errorf("ratio 0 prune error %v, want 0", q)
		}
		if q < prev {
			t.Errorf("prune error not monotone: %v after %v at ratio %v", q, prev, ratio)
		}
		prev = q
	}
}

func TestKeptFractionDecreasesWithRatio(t *testing.T) {
	spec, ws, _ := buildModel(t, zoo.ModelVGG, 10)
	prev := 1.1
	for _, ratio := range []float64{0, 0.3, 0.6, 0.9} {
		plan, _ := BuildPlan(spec, ws, ratio)
		frac, err := KeptFraction(spec, ws, plan)
		if err != nil {
			t.Fatal(err)
		}
		if frac >= prev {
			t.Errorf("kept fraction %v at ratio %v not below %v", frac, ratio, prev)
		}
		prev = frac
	}
}

func TestPlanChooseRejectsCorruptPlans(t *testing.T) {
	spec, ws, _ := buildModel(t, zoo.ModelCNN, 11)
	plan, _ := BuildPlan(spec, ws, 0.5)

	missing := &Plan{Model: plan.Model, Ratio: plan.Ratio, Kept: map[string][]int{}}
	if _, _, err := Shrink(spec, ws, missing); err == nil {
		t.Error("plan with missing entries accepted")
	}

	bad := &Plan{Model: plan.Model, Ratio: plan.Ratio, Kept: map[string][]int{}}
	for k, v := range plan.Kept {
		bad.Kept[k] = v
	}
	bad.Kept["conv1"] = []int{5, 3} // unsorted
	if _, _, err := Shrink(spec, ws, bad); err == nil {
		t.Error("unsorted plan entry accepted")
	}

	oob := &Plan{Model: plan.Model, Ratio: plan.Ratio, Kept: map[string][]int{}}
	for k, v := range plan.Kept {
		oob.Kept[k] = v
	}
	oob.Kept["conv1"] = []int{0, 99}
	if _, _, err := Shrink(spec, ws, oob); err == nil {
		t.Error("out-of-range plan entry accepted")
	}
}

// Property: for random ratios, the R2SP identities hold on the CNN model.
func TestRoundTripProperty(t *testing.T) {
	spec, ws, _ := buildModel(t, zoo.ModelCNN, 12)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ratio := r.Float64() * 0.95
		plan, err := BuildPlan(spec, ws, ratio)
		if err != nil {
			return false
		}
		_, subW, err := Shrink(spec, ws, plan)
		if err != nil {
			return false
		}
		rec, err := Recover(spec, subW, plan)
		if err != nil {
			return false
		}
		sparse, err := Sparse(spec, ws, plan)
		if err != nil {
			return false
		}
		for i := range ws {
			if !tensor.Equal(rec[i], sparse[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestKeepCount(t *testing.T) {
	cases := []struct {
		n     int
		ratio float64
		want  int
	}{
		{10, 0, 10},
		{10, 0.5, 5},
		{10, 0.99, 1},
		{10, 0.45, 6},
		{1, 0.9, 1},
		{3, 0.34, 2},
	}
	for _, c := range cases {
		if got := keepCount(c.n, c.ratio); got != c.want {
			t.Errorf("keepCount(%d, %v) = %d, want %d", c.n, c.ratio, got, c.want)
		}
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.5, 3, 1, 3, 0.1}
	got := topK(scores, 3, new(planScratch))
	want := []int{1, 2, 3} // two 3s (tie keeps lower index first) and the 1
	if !equalInts(got, want) {
		t.Errorf("topK = %v, want %v", got, want)
	}
}

// topKSortRef is the selection topK replaced: a stable descending index sort,
// its first k entries, re-sorted ascending.
func topKSortRef(scores []float64, k int) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	kept := append([]int(nil), idx[:k]...)
	sort.Ints(kept)
	return kept
}

// TestTopKMatchesSortReference pins the partial selection index for index
// against the stable sort across sizes, every k, heavy ties, signed zeros and
// infinities, reusing one scratch the way a planning goroutine does.
func TestTopKMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sc := new(planScratch)
	for _, n := range []int{1, 2, 3, 6, 24, 64, 257} {
		for trial := 0; trial < 6; trial++ {
			scores := make([]float64, n)
			for i := range scores {
				switch trial % 3 {
				case 0:
					scores[i] = rng.ExpFloat64()
				case 1:
					scores[i] = float64(rng.Intn(4)) // heavy ties
				default:
					scores[i] = []float64{0, math.Copysign(0, -1), 1, math.Inf(1), 2.5}[rng.Intn(5)]
				}
			}
			for k := 1; k <= n; k++ {
				if got, want := topK(scores, k, sc), topKSortRef(scores, k); !equalInts(got, want) {
					t.Fatalf("n=%d trial=%d k=%d: topK = %v, sort reference %v (scores %v)", n, trial, k, got, want, scores)
				}
			}
		}
	}
}

// TestTopKRanksNaNLast: a NaN score loses to every number and a layer still
// keeps exactly k structures.
func TestTopKRanksNaNLast(t *testing.T) {
	nan := math.NaN()
	got := topK([]float64{nan, 2, nan, 1, 0}, 3, new(planScratch))
	if want := []int{1, 3, 4}; !equalInts(got, want) {
		t.Errorf("topK = %v, want %v", got, want)
	}
	got = topK([]float64{nan, 2, nan, 1}, 3, new(planScratch))
	if want := []int{0, 1, 3}; !equalInts(got, want) {
		t.Errorf("topK with NaN tie = %v, want %v", got, want)
	}
}

// TestSelectKth checks the quickselect against a full sort, across sizes,
// duplicates and every rank.
func TestSelectKth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 3, 7, 50, 257} {
		for trial := 0; trial < 4; trial++ {
			s := make([]float64, n)
			for i := range s {
				if trial%2 == 0 {
					s[i] = rng.Float64()
				} else {
					s[i] = float64(rng.Intn(5)) // heavy duplicates
				}
			}
			sorted := append([]float64(nil), s...)
			sort.Float64s(sorted)
			for k := 0; k < n; k++ {
				in := append([]float64(nil), s...)
				if got := SelectKth(in, k); got != sorted[k] {
					t.Fatalf("n=%d trial=%d k=%d: SelectKth=%v, sort=%v", n, trial, k, got, sorted[k])
				}
			}
		}
	}
}

// buildPlanRef is plan construction as it was before the Context: scores and
// jitter computed inside the walk, layer by layer, drawing from rng as it
// goes, and the stable-sort selection.
func buildPlanRef(spec *zoo.Spec, weights []*tensor.Tensor, ratio, jitter float64, rng *rand.Rand) (map[string][]int, error) {
	kept := map[string][]int{}
	choose := func(v *visit, ws []*tensor.Tensor, forced []int) ([]int, error) {
		if forced != nil {
			return append([]int(nil), forced...), nil
		}
		scores, err := structureScores(v, ws[v.paramStart])
		if err != nil {
			return nil, err
		}
		if jitter != 0 && rng != nil {
			for i := range scores {
				scores[i] *= math.Exp(jitter * rng.NormFloat64())
			}
		}
		return topKSortRef(scores, keepCount(v.fullOut, ratio)), nil
	}
	err := walkPlanned(spec, weights, choose, func(v *visit) error {
		kept[v.l.Name] = v.keptOut
		return nil
	})
	return kept, err
}

// TestContextPlansMatchPerWorkerConstruction: plans built from one shared
// Context, their noise drawn up front in worker order, equal the plans the
// per-worker construction built one after another from the same stream — and
// leave the stream at the same position.
func TestContextPlansMatchPerWorkerConstruction(t *testing.T) {
	ratios := []float64{0, 0.1, 0.4, 0.79, 0.4}
	for _, id := range zoo.ImageModelIDs {
		spec, weights, _ := buildModel(t, id, 3)
		for _, jitter := range []float64{0, 0.3} {
			refRng, rng := rand.New(rand.NewSource(77)), rand.New(rand.NewSource(77))
			ctx, err := NewContext(spec, weights)
			if err != nil {
				t.Fatal(err)
			}
			var noise []float64
			for range ratios {
				noise = DrawNoise(noise, ctx.NoiseLen(), jitter, rng)
			}
			for w, ratio := range ratios {
				want, err := buildPlanRef(spec, weights, ratio, jitter, refRng)
				if err != nil {
					t.Fatal(err)
				}
				var mine []float64
				if jitter != 0 {
					mine = noise[w*ctx.NoiseLen() : (w+1)*ctx.NoiseLen()]
				}
				plan, err := ctx.Plan(ratio, jitter, mine)
				if err != nil {
					t.Fatal(err)
				}
				if len(plan.Kept) != len(want) {
					t.Fatalf("%s: plan has %d layers, reference %d", id, len(plan.Kept), len(want))
				}
				for name, kept := range want {
					if !equalInts(plan.Kept[name], kept) {
						t.Fatalf("%s worker %d ratio %v jitter %v layer %s: kept %v, reference %v",
							id, w, ratio, jitter, name, plan.Kept[name], kept)
					}
				}
			}
			if a, b := rng.Int63(), refRng.Int63(); a != b {
				t.Errorf("%s jitter %v: noise stream left at a different position", id, jitter)
			}
		}
	}
}

// TestAccumulateRejectsMalformedModels: a sub-model or sum that does not fit
// the plan is an error, never a panic — on the wire the sub-model comes from
// a worker.
func TestAccumulateRejectsMalformedModels(t *testing.T) {
	spec, weights, _ := buildModel(t, zoo.ModelCNN, 3)
	plan, err := BuildPlan(spec, weights, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	_, sub, err := Shrink(spec, weights, plan)
	if err != nil {
		t.Fatal(err)
	}
	zeros := func() []*tensor.Tensor {
		acc := make([]*tensor.Tensor, len(weights))
		for i, w := range weights {
			acc[i] = tensor.New(w.Shape...)
		}
		return acc
	}
	if err := Accumulate(spec, zeros(), sub, weights, plan); err != nil {
		t.Fatalf("well-formed accumulate: %v", err)
	}
	short := append([]*tensor.Tensor(nil), sub...)
	short[2] = tensor.New(3)
	for name, call := range map[string]func() error{
		"short sub tensor":  func() error { return Accumulate(spec, zeros(), short, weights, plan) },
		"missing sub":       func() error { return Accumulate(spec, zeros(), sub[:len(sub)-1], weights, plan) },
		"short sum":         func() error { return Accumulate(spec, zeros()[:3], sub, weights, plan) },
		"sub-shaped base":   func() error { return Accumulate(spec, zeros(), sub, sub, plan) },
		"plan of no layers": func() error { return Accumulate(spec, zeros(), sub, weights, &Plan{Kept: map[string][]int{}}) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
