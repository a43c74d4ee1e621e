package prune

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// gatherRowsRef is the element-by-element extraction the run copies replace.
func gatherRowsRef(src []float32, cols, per int, keptRows, keptCols []int) []float32 {
	if keptRows == nil {
		keptRows = allIndices(nil, len(src)/(cols*per))
	}
	if keptCols == nil {
		keptCols = allIndices(nil, cols)
	}
	var out []float32
	for _, r := range keptRows {
		for _, c := range keptCols {
			for t := 0; t < per; t++ {
				out = append(out, src[(r*cols+c)*per+t])
			}
		}
	}
	return out
}

// keptSets returns the kept index sets of [0, n) the property test walks:
// empty, full, a single index at each end, alternating from either parity,
// runs broken by gaps, random subsets, and nil (everything).
func keptSets(n int, rng *rand.Rand) map[string][]int {
	sets := map[string][]int{"empty": {}, "full": allIndices(nil, n), "first": {0}, "last": {n - 1}, "nil": nil}
	for parity := 0; parity < 2; parity++ {
		var alt []int
		for i := parity; i < n; i += 2 {
			alt = append(alt, i)
		}
		sets[fmt.Sprintf("alternating%d", parity)] = alt
	}
	var runs []int
	for i := 0; i < n; i++ {
		if i%5 != 2 && i%5 != 3 {
			runs = append(runs, i)
		}
	}
	sets["runs"] = runs
	for k := 0; k < 3; k++ {
		var random []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				random = append(random, i)
			}
		}
		sets[fmt.Sprintf("random%d", k)] = random
	}
	return sets
}

// TestGatherRowsMatchesElementLoop holds the run-copying extraction kernel
// to the element-by-element loop bit for bit — NaN payloads and −0 included —
// over every shape of kept set, with the destination pre-filled so an
// element it fails to write shows.
func TestGatherRowsMatchesElementLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, shape := range [][3]int{{1, 1, 1}, {1, 9, 1}, {5, 7, 1}, {4, 16, 4}, {6, 5, 9}} {
		rows, cols, per := shape[0], shape[1], shape[2]
		src := make([]float32, rows*cols*per)
		for i := range src {
			switch i % 7 {
			case 2:
				src[i] = math.Float32frombits(0x7fc00000 | uint32(i)) // a NaN with a payload
			case 4:
				src[i] = float32(math.Copysign(0, -1))
			default:
				src[i] = float32(rng.NormFloat64())
			}
		}
		rowSets, colSets := keptSets(rows, rng), keptSets(cols, rng)
		for rn, keptRows := range rowSets {
			for cn, keptCols := range colSets {
				want := gatherRowsRef(src, cols, per, keptRows, keptCols)
				dst := make([]float32, len(want)+1)
				for i := range dst {
					dst[i] = math.Float32frombits(0x7f800001) // unwritten marker
				}
				gatherRows(dst[:len(want)], src, cols, per, keptRows, keptCols)
				for i, w := range want {
					if math.Float32bits(dst[i]) != math.Float32bits(w) {
						t.Fatalf("%v rows %s cols %s: element %d is %#x, want %#x", shape, rn, cn, i, math.Float32bits(dst[i]), math.Float32bits(w))
					}
				}
				if math.Float32bits(dst[len(want)]) != 0x7f800001 {
					t.Fatalf("%v rows %s cols %s: wrote past the sub-tensor", shape, rn, cn)
				}
			}
		}
	}
}

// TestPlansAndSubModelsRebuiltInPlace: a plan and a sub-model rebuilt into
// one destination ratio after ratio — wider, narrower, jittered, the
// residual bodies of the sub-spec included — equal the ones a nil
// destination allocates, bit for bit, and stay in the destination's buffers,
// which the first extraction sizes for the global tensors, and the first
// plan its index arena for the full model's walk, whatever its ratio.
func TestPlansAndSubModelsRebuiltInPlace(t *testing.T) {
	for _, id := range []zoo.ModelID{zoo.ModelCNN, zoo.ModelResNet, zoo.ModelVGG} {
		spec, err := zoo.SpecFor(id)
		if err != nil {
			t.Fatal(err)
		}
		net, err := zoo.Build(spec, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := NewContext(spec, nn.GetWeights(net), nil)
		if err != nil {
			t.Fatal(err)
		}
		noise := DrawNoise(nil, ctx.NoiseLen(), 0.4, rand.New(rand.NewSource(3)))
		var plan *Plan
		var sub *zoo.Spec
		var subW []*tensor.Tensor
		for step, ratio := range []float64{0.7, 0, 0.3, 0.7, 0.5} {
			jitter, n := 0.0, []float64(nil)
			if step%2 == 1 {
				jitter, n = 0.4, noise
			}
			fresh, err := ctx.Plan(ratio, jitter, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			freshSub, freshW, err := ctx.Shrink(fresh, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			lastPlan, lastSub := plan, sub
			if plan, err = ctx.Plan(ratio, jitter, n, plan); err != nil {
				t.Fatal(err)
			}
			if sub, subW, err = ctx.Shrink(plan, sub, subW); err != nil {
				t.Fatal(err)
			}
			if step > 0 && (plan != lastPlan || sub != lastSub) {
				t.Errorf("%s step %d: the destination was replaced, not rebuilt", id, step)
			}
			if !reflect.DeepEqual(plan.Kept, fresh.Kept) || !reflect.DeepEqual(plan.visits, fresh.visits) {
				t.Fatalf("%s step %d: rebuilt plan differs from a fresh one", id, step)
			}
			if !reflect.DeepEqual(sub, freshSub) {
				t.Fatalf("%s step %d: rebuilt sub-spec %+v, fresh %+v", id, step, sub, freshSub)
			}
			requireSameTensors(t, fmt.Sprintf("%s step %d", id, step), subW, freshW)
			if got := cap(plan.ints.buf); got != ctx.walkInts || plan.ints.taken > got {
				t.Fatalf("%s step %d: index arena has room for %d ints and took %d, want room for the full walk's %d",
					id, step, got, plan.ints.taken, ctx.walkInts)
			}
			for i, w := range subW {
				if cap(w.Data) != len(ctx.weights[i].Data) {
					t.Fatalf("%s step %d: sub-model tensor %d has room for %d elements, want its global tensor's %d",
						id, step, i, cap(w.Data), len(ctx.weights[i].Data))
				}
			}
		}
	}
	cfg := zoo.DefaultLMConfig()
	lmCtx, err := NewLMContext(cfg, nn.GetWeights(zoo.BuildLM(cfg, rand.New(rand.NewSource(1)))), nil)
	if err != nil {
		t.Fatal(err)
	}
	var plan *LMPlan
	var subW []*tensor.Tensor
	for step, ratio := range []float64{0, 0.6, 0.2, 0.6} {
		fresh, err := lmCtx.Plan(ratio, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		freshCfg, freshW, err := lmCtx.Shrink(fresh, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plan, err = lmCtx.Plan(ratio, 0, nil, plan); err != nil {
			t.Fatal(err)
		}
		subCfg, w, err := lmCtx.Shrink(plan, subW)
		if err != nil {
			t.Fatal(err)
		}
		subW = w
		if !reflect.DeepEqual(plan.Kept1, fresh.Kept1) || !reflect.DeepEqual(plan.Kept2, fresh.Kept2) ||
			!reflect.DeepEqual(plan.rows1, fresh.rows1) || !reflect.DeepEqual(plan.rows2, fresh.rows2) || subCfg != freshCfg {
			t.Fatalf("LM step %d: rebuilt plan differs from a fresh one", step)
		}
		requireSameTensors(t, fmt.Sprintf("LM step %d", step), subW, freshW)
		if got := cap(plan.ints.buf); got != 10*cfg.Hidden {
			t.Fatalf("LM step %d: index arena has room for %d ints, want the full walk's %d", step, got, 10*cfg.Hidden)
		}
	}
}

// TestContextsRescoredInPlace: a context rescored in place, model after
// model, holds the scores a fresh one computes, bit for bit, in the arrays
// it was first given.
func TestContextsRescoredInPlace(t *testing.T) {
	for _, id := range []zoo.ModelID{zoo.ModelCNN, zoo.ModelResNet} {
		spec, err := zoo.SpecFor(id)
		if err != nil {
			t.Fatal(err)
		}
		var ctx *Context
		var first *float64
		for seed := int64(1); seed <= 3; seed++ {
			net, err := zoo.Build(spec, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewContext(spec, nn.GetWeights(net), nil)
			if err != nil {
				t.Fatal(err)
			}
			last := ctx
			if ctx, err = NewContext(spec, nn.GetWeights(net), ctx); err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = &ctx.scores[0][0]
			}
			if last != nil && (ctx != last || &ctx.scores[0][0] != first) {
				t.Errorf("%s seed %d: the context was replaced, not rescored", id, seed)
			}
			if !reflect.DeepEqual(ctx.scores, fresh.scores) || ctx.noiseLen != fresh.noiseLen || ctx.walkInts != fresh.walkInts {
				t.Fatalf("%s seed %d: rescored context differs from a fresh one", id, seed)
			}
		}
	}
	cfg := zoo.DefaultLMConfig()
	var lm *LMContext
	for seed := int64(1); seed <= 3; seed++ {
		ws := nn.GetWeights(zoo.BuildLM(cfg, rand.New(rand.NewSource(seed))))
		fresh, err := NewLMContext(cfg, ws, nil)
		if err != nil {
			t.Fatal(err)
		}
		last := lm
		if lm, err = NewLMContext(cfg, ws, lm); err != nil {
			t.Fatal(err)
		}
		if last != nil && lm != last {
			t.Errorf("LM seed %d: the context was replaced, not rescored", seed)
		}
		if !reflect.DeepEqual(lm.s1, fresh.s1) || !reflect.DeepEqual(lm.s2, fresh.s2) {
			t.Fatalf("LM seed %d: rescored context differs from a fresh one", seed)
		}
	}
}

// requireSameTensors fails unless got and want agree in shape and bits.
func requireSameTensors(t *testing.T, what string, got, want []*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tensors, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Shape, want[i].Shape) || len(got[i].Data) != len(want[i].Data) {
			t.Fatalf("%s: tensor %d is %v, want %v", what, i, got[i].Shape, want[i].Shape)
		}
		for j, v := range want[i].Data {
			if math.Float32bits(got[i].Data[j]) != math.Float32bits(v) {
				t.Fatalf("%s: tensor %d element %d differs", what, i, j)
			}
		}
	}
}
