//go:build !race

package prune

import (
	"math/rand"
	"testing"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/testfd"
	"fedmp/internal/zoo"
)

// allocTable is prune's allocation inventory: the aggregation, selection and
// quantization kernels the round engine runs per participant or per tensor,
// which must not allocate (testfd.AllocTable runs it).
var allocTable = []testfd.AllocRow{
	{Fns: []any{accumulate, tensor.AddTo}, Setup: func() func() {
		// A [6, 7, 4] tensor with kept and pruned rows, and kept columns in
		// runs with gaps between them; whole, then a block from a kept row
		// on, then every row kept.
		const rows, cols, per = 6, 7, 4
		keptRows, keptCols := []int{0, 2, 3}, []int{1, 2, 5}
		acc, base := values(rows*cols*per), values(rows*cols*per)
		sub := values(rows * cols * per)
		return func() {
			accumulate(acc, sub, base, cols, per, keptRows, keptCols, 0, rows)
			accumulate(acc, sub[:len(keptRows)*cols], nil, cols, 1, keptRows, nil, 2, 5)
			accumulate(acc, sub, base, cols, per, nil, keptCols, 1, 3)
		}
	}},
	{Fns: []any{Accumulate, AccumulateLM}, Setup: func() func() {
		// One participant's term, block by block, through a plan as the
		// round engine builds it: its walk and gate rows resolved once.
		spec, err := zoo.SpecFor(zoo.ModelVGG)
		if err != nil {
			panic(err)
		}
		net, err := zoo.Build(spec, rand.New(rand.NewSource(1)))
		if err != nil {
			panic(err)
		}
		ws := nn.GetWeights(net)
		plan, err := BuildPlan(spec, ws, 0.4)
		if err != nil {
			panic(err)
		}
		_, sub, err := Shrink(spec, ws, plan, nil, nil)
		if err != nil {
			panic(err)
		}
		cfg := zoo.DefaultLMConfig()
		lmWs := nn.GetWeights(zoo.BuildLM(cfg, rand.New(rand.NewSource(1))))
		lmPlan, err := BuildLMPlan(cfg, lmWs, 0.4)
		if err != nil {
			panic(err)
		}
		_, lmSub, err := ShrinkLM(cfg, lmWs, lmPlan, nil)
		if err != nil {
			panic(err)
		}
		acc, lmAcc := nn.CloneWeights(ws), nn.CloneWeights(lmWs)
		return func() {
			for part := range 3 {
				if Accumulate(spec, acc, sub, ws, plan, part, 3) != nil || AccumulateLM(cfg, lmAcc, lmSub, lmWs, lmPlan, part, 3) != nil {
					panic("accumulate failed")
				}
			}
		}
	}},
	{Fns: []any{(*Context).Plan, Shrink, gatherRows, (*LMContext).Plan, ShrinkLM}, Setup: func() func() {
		// One worker slot's plan and sub-model rebuilt in place, as the
		// round engine rebuilds them every time the slot is assigned: a
		// residual model (bodies in the sub-spec) cycling three ratios, a
		// jittered plan among them, and the language model.
		spec, err := zoo.SpecFor(zoo.ModelResNet)
		if err != nil {
			panic(err)
		}
		net, err := zoo.Build(spec, rand.New(rand.NewSource(1)))
		if err != nil {
			panic(err)
		}
		ctx, err := NewContext(spec, nn.GetWeights(net), nil)
		if err != nil {
			panic(err)
		}
		noise := DrawNoise(nil, ctx.NoiseLen(), 0.3, rand.New(rand.NewSource(2)))
		cfg := zoo.DefaultLMConfig()
		lmCtx, err := NewLMContext(cfg, nn.GetWeights(zoo.BuildLM(cfg, rand.New(rand.NewSource(1)))), nil)
		if err != nil {
			panic(err)
		}
		var plan *Plan
		var sub *zoo.Spec
		var lmPlan *LMPlan
		var subW, lmSubW []*tensor.Tensor
		return func() {
			for _, ratio := range []float64{0.6, 0, 0.3} {
				var err error
				if plan, err = ctx.Plan(ratio, 0.3, noise, plan); err != nil {
					panic(err)
				}
				if sub, subW, err = ctx.Shrink(plan, sub, subW); err != nil {
					panic(err)
				}
				if lmPlan, err = lmCtx.Plan(ratio, 0, nil, lmPlan); err != nil {
					panic(err)
				}
				if _, lmSubW, err = lmCtx.Shrink(lmPlan, lmSubW); err != nil {
					panic(err)
				}
			}
		}
	}},
	{Fns: []any{NewContext, structureScores, NewLMContext}, Setup: func() func() {
		// The round's global model rescored into the strategy's one context,
		// a residual model's and the language model's.
		spec, err := zoo.SpecFor(zoo.ModelResNet)
		if err != nil {
			panic(err)
		}
		net, err := zoo.Build(spec, rand.New(rand.NewSource(1)))
		if err != nil {
			panic(err)
		}
		ws := nn.GetWeights(net)
		cfg := zoo.DefaultLMConfig()
		lmWs := nn.GetWeights(zoo.BuildLM(cfg, rand.New(rand.NewSource(1))))
		var ctx *Context
		var lmCtx *LMContext
		return func() {
			var err error
			if ctx, err = NewContext(spec, ws, ctx); err != nil {
				panic(err)
			}
			if lmCtx, err = NewLMContext(cfg, lmWs, lmCtx); err != nil {
				panic(err)
			}
		}
	}},
	{Fns: []any{SelectKth}, Setup: func() func() {
		s := make([]float64, 101)
		for i := range s {
			s[i] = float64((i * 37) % 101)
		}
		return func() { SelectKth(s, 50) }
	}},
	{Fns: []any{SymmetricScale, QuantizeElem}, Setup: func() func() {
		vals := values(64)
		return func() {
			scale, _ := SymmetricScale(vals)
			inv := 1 / float64(scale)
			for _, v := range vals {
				QuantizeElem(v, inv)
			}
		}
	}},
}

func TestAllocTable(t *testing.T) { testfd.AllocTable(t, allocTable) }

// values returns n standard normal float32s.
func values(n int) []float32 {
	rng := rand.New(rand.NewSource(int64(n)))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}
