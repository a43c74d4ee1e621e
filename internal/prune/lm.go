package prune

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// LMPlan records the kept hidden units of each LSTM layer of the language
// model. Following the intrinsic-sparse-structure strategy (§VI, after Wen
// et al.), removing hidden unit k of an LSTM removes rows {k, H+k, 2H+k,
// 3H+k} of Wx/Wh/b, column k of Wh, and the corresponding input column of
// the next layer. Embedding and vocabulary head are never pruned.
type LMPlan struct {
	Ratio        float64
	Kept1, Kept2 []int // kept hidden units of lstm1 and lstm2, sorted

	// rows1 and rows2 are Kept1 and Kept2 expanded to the rows of a
	// [4·hidden, ·] gate matrix when the plan was built, so the model algebra
	// never expands them again. A plan assembled by hand has neither and is
	// expanded, and validated, on each use.
	hidden       int
	rows1, rows2 []int
	// ints backs the four sets, as Plan's does.
	ints indexArena
}

// gates returns the plan's kept gate rows for h hidden units.
func (p *LMPlan) gates(h int) (rows1, rows2 []int) {
	if p.rows1 != nil && p.hidden == h {
		return p.rows1, p.rows2
	}
	return gateRows(p.Kept1, h, nil), gateRows(p.Kept2, h, nil)
}

// LM parameter layout in nn.GetWeights order (see nn.LSTMLM):
//
//	0: embed/W [V,E]
//	1: lstm1/Wx [4H,E]   2: lstm1/Wh [4H,H]   3: lstm1/b [4H]
//	4: lstm2/Wx [4H,H]   5: lstm2/Wh [4H,H]   6: lstm2/b [4H]
//	7: out/W [V,H]       8: out/b [V]
const lmTensors = 9

// BuildLMPlan scores each hidden unit by the l1 norm of its intrinsic
// sparse structure (its gate rows in Wx and Wh plus its Wh recurrent
// column) and keeps the top (1−ratio) fraction per layer.
func BuildLMPlan(cfg zoo.LMConfig, weights []*tensor.Tensor, ratio float64) (*LMPlan, error) {
	return BuildLMPlanJittered(cfg, weights, ratio, 0, nil)
}

// BuildLMPlanJittered is BuildLMPlan with multiplicative log-normal score
// noise, mirroring BuildPlanJittered.
func BuildLMPlanJittered(cfg zoo.LMConfig, weights []*tensor.Tensor, ratio, jitter float64, rng *rand.Rand) (*LMPlan, error) {
	c, err := NewLMContext(cfg, weights, nil)
	if err != nil {
		return nil, err
	}
	return c.Plan(ratio, jitter, DrawNoise(nil, c.NoiseLen(), jitter, rng), nil)
}

// LMContext is Context for the language model: the hidden-unit scores of
// both LSTM layers of one global model, computed once and read-only after.
type LMContext struct {
	cfg     zoo.LMConfig
	weights []*tensor.Tensor
	s1, s2  []float64
}

// NewLMContext scores the hidden units of the global language model in dst,
// as NewContext scores an image model's; a nil dst allocates.
func NewLMContext(cfg zoo.LMConfig, weights []*tensor.Tensor, dst *LMContext) (*LMContext, error) {
	if len(weights) != lmTensors {
		return nil, fmt.Errorf("prune: LM weight list has %d tensors, want %d", len(weights), lmTensors)
	}
	c := dst
	if c == nil {
		c = new(LMContext)
	}
	h := cfg.Hidden
	score := func(scores []float64, wx, wh *tensor.Tensor) []float64 {
		scores = slices.Grow(scores[:0], h)[:h]
		dIn := wx.Shape[1]
		for k := 0; k < h; k++ {
			var s float64
			for g := 0; g < 4; g++ {
				row := g*h + k
				s += tensor.AbsSumSlice(wx.Data[row*dIn : (row+1)*dIn])
				s += tensor.AbsSumSlice(wh.Data[row*h : (row+1)*h])
			}
			// Recurrent column k of Wh.
			for r := 0; r < 4*h; r++ {
				s += math.Abs(float64(wh.Data[r*h+k]))
			}
			scores[k] = s
		}
		return scores
	}
	c.cfg, c.weights = cfg, weights
	c.s1, c.s2 = score(c.s1, weights[1], weights[2]), score(c.s2, weights[4], weights[5])
	return c, nil
}

// NoiseLen is the number of standard-normal draws one jittered plan consumes.
func (c *LMContext) NoiseLen() int { return len(c.s1) + len(c.s2) }

// Plan keeps the top (1−ratio) fraction of each layer's hidden units, scores
// scaled by exp(jitter·noise[i]) first when noise is non-empty (lstm1's
// units, then lstm2's). The plan is built in dst as Context.Plan builds
// its; a nil dst allocates.
func (c *LMContext) Plan(ratio, jitter float64, noise []float64, dst *LMPlan) (*LMPlan, error) {
	if err := checkRatioJitter(ratio, jitter); err != nil {
		return nil, err
	}
	if len(noise) != 0 && len(noise) != c.NoiseLen() {
		return nil, fmt.Errorf("prune: %d noise draws for %d hidden units", len(noise), c.NoiseLen())
	}
	if dst == nil {
		dst = new(LMPlan)
	}
	// The walk takes at most both layers' units and their four gate rows.
	ints := &dst.ints
	ints.reset(10 * c.cfg.Hidden)
	sc := scratchPool.Get().(*planScratch)
	defer scratchPool.Put(sc)
	keep := keepCount(c.cfg.Hidden, ratio)
	pick := func(scores, noise []float64) []int {
		if len(noise) != 0 {
			sc.jittered = slices.Grow(sc.jittered[:0], len(scores))[:len(scores)]
			for i, s := range scores {
				sc.jittered[i] = s * math.Exp(jitter*noise[i])
			}
			scores = sc.jittered
		}
		return topK(scores, keep, sc, ints)
	}
	var n1, n2 []float64
	if len(noise) != 0 {
		n1, n2 = noise[:len(c.s1)], noise[len(c.s1):]
	}
	h := c.cfg.Hidden
	kept1, kept2 := pick(c.s1, n1), pick(c.s2, n2)
	dst.Ratio, dst.Kept1, dst.Kept2, dst.hidden = ratio, kept1, kept2, h
	dst.rows1, dst.rows2 = gateRows(kept1, h, ints), gateRows(kept2, h, ints)
	return dst, nil
}

// Shrink extracts the plan's sub-model from the context's global model into
// subW (see ShrinkLM).
func (c *LMContext) Shrink(plan *LMPlan, subW []*tensor.Tensor) (zoo.LMConfig, []*tensor.Tensor, error) {
	return ShrinkLM(c.cfg, c.weights, plan, subW)
}

// gateRows expands kept hidden units into kept rows of a packed [4H, ·]
// gate matrix, in a set from ints (nil allocates).
func gateRows(kept []int, h int, ints *indexArena) []int {
	rows := ints.take(4 * len(kept))[:0]
	for g := 0; g < 4; g++ {
		for _, k := range kept {
			rows = append(rows, g*h+k)
		}
	}
	sort.Ints(rows)
	return rows
}

// ShrinkLM extracts the pruned language model: a smaller config plus the
// sub-model weights, built in subW as Shrink builds its (nil allocates).
func ShrinkLM(cfg zoo.LMConfig, weights []*tensor.Tensor, plan *LMPlan, subW []*tensor.Tensor) (zoo.LMConfig, []*tensor.Tensor, error) {
	if len(weights) != lmTensors {
		return cfg, nil, fmt.Errorf("prune: LM weight list has %d tensors, want %d", len(weights), lmTensors)
	}
	rows1, rows2 := plan.gates(cfg.Hidden)
	sub := cfg
	sub.Hidden = len(plan.Kept1)
	if len(plan.Kept2) != len(plan.Kept1) {
		return cfg, nil, fmt.Errorf("prune: LM layers pruned to different widths %d vs %d",
			len(plan.Kept1), len(plan.Kept2))
	}
	if len(subW) != lmTensors {
		subW = make([]*tensor.Tensor, lmTensors)
	}
	subW[0] = extract(subW[0], weights[0], nil, nil)          // embedding untouched
	subW[1] = extract(subW[1], weights[1], rows1, nil)        // lstm1/Wx
	subW[2] = extract(subW[2], weights[2], rows1, plan.Kept1) // lstm1/Wh
	subW[3] = extract(subW[3], weights[3], rows1, nil)        // lstm1/b
	subW[4] = extract(subW[4], weights[4], rows2, plan.Kept1) // lstm2/Wx (input = lstm1 hidden)
	subW[5] = extract(subW[5], weights[5], rows2, plan.Kept2) // lstm2/Wh
	subW[6] = extract(subW[6], weights[6], rows2, nil)        // lstm2/b
	subW[7] = extract(subW[7], weights[7], nil, plan.Kept2)   // out/W
	subW[8] = extract(subW[8], weights[8], nil, nil)          // out/b untouched
	return sub, subW, nil
}

// SparseLM zeroes every pruned coordinate of the full-shape weights.
func SparseLM(cfg zoo.LMConfig, weights []*tensor.Tensor, plan *LMPlan) ([]*tensor.Tensor, error) {
	sub, subW, err := ShrinkLM(cfg, weights, plan, nil)
	if err != nil {
		return nil, err
	}
	return RecoverLM(cfg, sub, subW, plan)
}

// RecoverLM scatters a sub-model back into full shape, zero elsewhere.
func RecoverLM(cfg, subCfg zoo.LMConfig, subWeights []*tensor.Tensor, plan *LMPlan) ([]*tensor.Tensor, error) {
	if len(subWeights) != lmTensors {
		return nil, fmt.Errorf("prune: LM sub-model has %d tensors, want %d", len(subWeights), lmTensors)
	}
	if subCfg.Hidden != len(plan.Kept1) {
		return nil, fmt.Errorf("prune: sub-model hidden %d does not match plan (%d kept)",
			subCfg.Hidden, len(plan.Kept1))
	}
	h := cfg.Hidden
	rows1, rows2 := plan.gates(h)
	allE := allIndices(nil, cfg.Embed)
	allV := allIndices(nil, cfg.Vocab)

	out := make([]*tensor.Tensor, lmTensors)
	out[0] = subWeights[0].Clone()
	out[1] = tensor.New(4*h, cfg.Embed)
	scatterMat(out[1], subWeights[1], rows1, allE)
	out[2] = tensor.New(4*h, h)
	scatterMat(out[2], subWeights[2], rows1, plan.Kept1)
	out[3] = tensor.New(4 * h)
	scatterVec(out[3], subWeights[3], rows1)
	out[4] = tensor.New(4*h, h)
	scatterMat(out[4], subWeights[4], rows2, plan.Kept1)
	out[5] = tensor.New(4*h, h)
	scatterMat(out[5], subWeights[5], rows2, plan.Kept2)
	out[6] = tensor.New(4 * h)
	scatterVec(out[6], subWeights[6], rows2)
	out[7] = tensor.New(cfg.Vocab, h)
	scatterMat(out[7], subWeights[7], allV, plan.Kept2)
	out[8] = subWeights[8].Clone()
	return out, nil
}

// AccumulateLM is Accumulate for the language model: it adds row block part
// of parts of one participant's term of the R2SP (or, with a nil base, BSP)
// average to the full-shape running sum acc.
func AccumulateLM(cfg zoo.LMConfig, acc, subWeights, base []*tensor.Tensor, plan *LMPlan, part, parts int) error {
	if len(acc) != lmTensors {
		return fmt.Errorf("prune: LM accumulate wants %d tensors per model", lmTensors)
	}
	if err := checkModels(acc, subWeights, base, part, parts); err != nil {
		return err
	}
	h, e, v := cfg.Hidden, cfg.Embed, cfg.Vocab
	rows1, rows2 := plan.rows1, plan.rows2
	if rows1 == nil || plan.hidden != h {
		for _, kept := range [2][]int{plan.Kept1, plan.Kept2} {
			for i, k := range kept {
				if k < 0 || k >= h || (i > 0 && kept[i-1] >= k) {
					return fmt.Errorf("prune: LM plan is not a sorted subset of [0,%d)", h)
				}
			}
		}
		rows1, rows2 = gateRows(plan.Kept1, h, nil), gateRows(plan.Kept2, h, nil)
	}
	layout := [lmTensors]struct {
		rows, cols         int
		keptRows, keptCols []int
	}{
		{v, e, nil, nil}, // embedding untouched
		{4 * h, e, rows1, nil},
		{4 * h, h, rows1, plan.Kept1},
		{4 * h, 1, rows1, nil},
		{4 * h, h, rows2, plan.Kept1},
		{4 * h, h, rows2, plan.Kept2},
		{4 * h, 1, rows2, nil},
		{v, h, nil, plan.Kept2},
		{v, 1, nil, nil}, // output bias untouched
	}
	for t, l := range layout {
		if err := accumulateTensor(acc, subWeights, base, t, l.rows, l.cols, 1, l.keptRows, l.keptCols, part, parts); err != nil {
			return fmt.Errorf("prune: LM %w", err)
		}
	}
	return nil
}
