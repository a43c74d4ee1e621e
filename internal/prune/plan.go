// Package prune implements the structured model pruning of FedMP §III-B and
// the model algebra R2SP (§III-C) is built on.
//
// A Plan records, for every parameter-carrying layer of a zoo.Spec, the
// output structures (convolution filters, batch-norm channels, dense
// neurons) that survive pruning at a given ratio. Importance is the l1 norm
// of each structure's weights, every layer uses the same ratio (the paper
// avoids layer-wise hyper-parameters), the classifier output layer is never
// pruned, and the last convolution inside a residual block inherits the
// block's input channel set so the identity skip stays well-formed.
//
// Every operation reads the one index walk a plan resolved when it was built
// and therefore can never disagree about which coordinate belongs to which
// structure:
//
//   - Shrink: physically extract the sub-model (smaller spec + weights)
//   - Accumulate: add a trained sub-model into an R2SP/BSP aggregation sum
//   - Sparse: the global-shaped model with pruned coordinates zeroed
//   - Recover: scatter a sub-model back into global shape (zeros elsewhere)
//   - ResidualOf: global − sparse, the R2SP auxiliary model
//
// The last three are the reference algebra of §III-C: the round engine
// aggregates through Accumulate, which never materialises a sparse, residual
// or recovered model, and tests pin it bit for bit against them. The
// invariants Recover(Shrink(x)) == Sparse(x) and
// Sparse(x) + ResidualOf(x) == x are property-tested.
//
// A Context holds what every worker's plan of one round shares — the
// structure scores of the round's global model — so pruning a cohort scores
// the model once, not once per worker.
package prune

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// Plan records the kept output indices (sorted ascending) of every
// parameter-carrying layer, keyed by layer name. A nil plan or an absent
// entry means "keep everything".
type Plan struct {
	// Model is the spec name the plan was built for.
	Model string
	// Ratio is the pruning ratio in [0,1) that produced the plan.
	Ratio float64
	// Kept maps layer name to sorted kept output indices.
	Kept map[string][]int

	// spec and visits are the index walk resolved when the plan was built:
	// every parameter-carrying layer of spec in walk order with its kept
	// output and input sets (the flatten expansion included), so the model
	// algebra never walks the spec again. A plan assembled by hand has
	// neither and is walked, and validated, on each use.
	spec   *zoo.Spec
	visits []visit
}

// resolved returns the plan's index walk over spec.
func (p *Plan) resolved(spec *zoo.Spec) ([]visit, error) {
	if p.visits != nil && p.spec == spec {
		return p.visits, nil
	}
	var vs []visit
	err := walkPlanned(spec, nil, planChoose(p), func(v *visit) error {
		vs = append(vs, *v)
		return nil
	})
	return vs, err
}

// checkTensors reports whether a global-shaped weight list has one tensor per
// parameter the walk implies.
func checkTensors(spec *zoo.Spec, vs []visit, weights []*tensor.Tensor) error {
	want := 0
	if n := len(vs); n > 0 {
		want = vs[n-1].paramStart + paramTensors(vs[n-1].l.Kind)
	}
	if len(weights) != want {
		return fmt.Errorf("prune: weight list has %d tensors, spec %q implies %d", len(weights), spec.Name, want)
	}
	return nil
}

// keepCount returns how many of n structures survive ratio.
func keepCount(n int, ratio float64) int {
	k := n - int(ratio*float64(n))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// visit describes one parameter-carrying layer during a planned walk, with
// its resolved index sets.
type visit struct {
	l          *zoo.LayerSpec
	paramStart int   // offset of the layer's first tensor in the weight list
	keptOut    []int // kept output structures (filters/channels/neurons)
	keptIn     []int // kept input coordinates of the weight matrix's 2nd dim
	fullOut    int   // original output width
	fullIn     int   // original input width (channels for conv, flat for dense)
}

// paramTensors returns the number of weight tensors each kind contributes,
// mirroring the construction order in zoo.Build.
func paramTensors(k zoo.Kind) int {
	switch k {
	case zoo.KindConv, zoo.KindDense:
		return 2 // W, b
	case zoo.KindBatchNorm:
		return 4 // gamma, beta, running mean, running variance
	default:
		return 0
	}
}

// chooseFn decides the kept output indices for a prunable layer. forced is
// non-nil when the layer's output set is dictated by structure (the last
// convolution of a residual body).
type chooseFn func(v *visit, weights []*tensor.Tensor, forced []int) ([]int, error)

// walkPlanned walks the spec with full index bookkeeping, calling choose for
// every parameter-carrying layer to fix its kept output set, then fn with
// the fully resolved visit. It is the only place index sets are derived: plan
// construction runs it once and records the visits the model algebra reads.
func walkPlanned(spec *zoo.Spec, weights []*tensor.Tensor, choose chooseFn, fn func(v *visit) error) error {
	if len(spec.Layers) == 0 || spec.Layers[len(spec.Layers)-1].Kind != zoo.KindDense {
		return fmt.Errorf("prune: spec %q must end in a dense classifier layer", spec.Name)
	}
	finalDense := &spec.Layers[len(spec.Layers)-1]

	cursor := 0
	// curKept tracks the surviving coordinates of the current activation:
	// channel indices before flattening, flat feature indices after.
	curKept := allIndices(spec.InC)

	// Residual bookkeeping.
	var blockInputKept []int
	var forcedConv *zoo.LayerSpec

	err := spec.Walk(func(l *zoo.LayerSpec, parent *zoo.LayerSpec, inC, inH, inW, inFlat int) error {
		if parent != nil && blockInputKept == nil {
			// First body layer of a residual block: snapshot the entry set
			// and find the conv whose output must match it.
			blockInputKept = append([]int(nil), curKept...)
			forcedConv = lastConv(parent.Body)
		}
		if parent == nil {
			blockInputKept, forcedConv = nil, nil
		}
		start := cursor
		cursor += paramTensors(l.Kind)
		if weights != nil && cursor > len(weights) {
			return fmt.Errorf("prune: weight list too short at layer %q", l.Name)
		}

		switch l.Kind {
		case zoo.KindConv:
			v := &visit{l: l, paramStart: start, keptIn: curKept, fullOut: l.Out, fullIn: inC}
			var forced []int
			if l == forcedConv {
				forced = blockInputKept
			}
			kept, err := choose(v, weights, forced)
			if err != nil {
				return err
			}
			v.keptOut = kept
			if err := fn(v); err != nil {
				return err
			}
			curKept = kept

		case zoo.KindBatchNorm:
			// Follows its convolution's channel set.
			v := &visit{l: l, paramStart: start, keptOut: curKept, keptIn: nil, fullOut: inC, fullIn: 0}
			if err := fn(v); err != nil {
				return err
			}

		case zoo.KindGlobalAvgPool:
			// Channels map 1:1 onto flat features; curKept carries over.

		case zoo.KindFlatten:
			// Channel c occupies the contiguous block [c·H·W, (c+1)·H·W).
			hw := inH * inW
			expanded := make([]int, 0, len(curKept)*hw)
			for _, c := range curKept {
				base := c * hw
				for k := 0; k < hw; k++ {
					expanded = append(expanded, base+k)
				}
			}
			curKept = expanded

		case zoo.KindDense:
			v := &visit{l: l, paramStart: start, keptIn: curKept, fullOut: l.Out, fullIn: inFlat}
			var forced []int
			if l == finalDense {
				forced = allIndices(l.Out)
			}
			kept, err := choose(v, weights, forced)
			if err != nil {
				return err
			}
			v.keptOut = kept
			if err := fn(v); err != nil {
				return err
			}
			curKept = kept
		}
		return nil
	})
	if err != nil {
		return err
	}
	if weights != nil && cursor != len(weights) {
		return fmt.Errorf("prune: weight list has %d tensors, spec %q implies %d",
			len(weights), spec.Name, cursor)
	}
	return nil
}

// lastConv returns the final convolution spec of a residual body, or nil.
func lastConv(body []zoo.LayerSpec) *zoo.LayerSpec {
	for i := len(body) - 1; i >= 0; i-- {
		if body[i].Kind == zoo.KindConv {
			return &body[i]
		}
	}
	return nil
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// BuildPlan scores every prunable structure of the global model by l1 norm
// and keeps the most important (1−ratio) fraction per layer, following the
// paper's pruning strategy (§III-B). weights must be the global model's
// parameters in nn.GetWeights order.
func BuildPlan(spec *zoo.Spec, weights []*tensor.Tensor, ratio float64) (*Plan, error) {
	return BuildPlanJittered(spec, weights, ratio, 0, nil)
}

// BuildPlanJittered is BuildPlan with multiplicative log-normal noise on the
// importance scores: each structure's score is scaled by exp(jitter·N(0,1))
// before the top-k selection. R2SP's convergence story requires that "each
// model parameter has a chance to be trained" (§III-C); with a perfectly
// stable importance ranking, deterministic top-k freezes the bottom
// structures forever, so the FedMP strategy samples its per-worker plans
// with a small jitter. jitter 0 (or a nil rng) recovers the deterministic
// plan. It is a one-plan Context: NoiseLen draws from rng, then Plan.
func BuildPlanJittered(spec *zoo.Spec, weights []*tensor.Tensor, ratio, jitter float64, rng *rand.Rand) (*Plan, error) {
	c, err := NewContext(spec, weights)
	if err != nil {
		return nil, err
	}
	return c.Plan(ratio, jitter, DrawNoise(nil, c.NoiseLen(), jitter, rng))
}

func checkRatioJitter(ratio, jitter float64) error {
	if ratio < 0 || ratio >= 1 {
		return fmt.Errorf("prune: ratio %v outside [0,1)", ratio)
	}
	if jitter < 0 {
		return fmt.Errorf("prune: negative score jitter %v", jitter)
	}
	return nil
}

// DrawNoise appends the n standard-normal draws one jittered plan consumes to
// dst, in the order Plan reads them. With jitter 0 or a nil rng it draws
// nothing and returns dst as is — the deterministic plan. Drawing is split
// from planning so a strategy can draw every worker's noise serially, in
// worker order from one stream, and then build the plans on all cores.
func DrawNoise(dst []float64, n int, jitter float64, rng *rand.Rand) []float64 {
	if jitter == 0 || rng == nil {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, rng.NormFloat64())
	}
	return dst
}

// Context is the pruning state every plan built against one global model
// shares: the l1 importance scores of each freely prunable layer's structures
// (sum of absolute kernel weights per filter, absolute incoming weights per
// neuron), computed once. It is read-only after NewContext, so Plan may run
// from many goroutines at once.
type Context struct {
	spec    *zoo.Spec
	weights []*tensor.Tensor
	// scores holds one slice per layer whose kept set the scores decide, in
	// walk order — the order Plan consumes them and its noise in.
	scores   [][]float64
	noiseLen int
}

// NewContext scores the global model's structures. weights must be the
// model's parameters in nn.GetWeights order; they are read, never modified,
// and must stay unchanged while the context is in use.
func NewContext(spec *zoo.Spec, weights []*tensor.Tensor) (*Context, error) {
	c := &Context{spec: spec, weights: weights}
	choose := func(v *visit, ws []*tensor.Tensor, forced []int) ([]int, error) {
		if forced != nil {
			return forced, nil
		}
		scores, err := structureScores(v, ws[v.paramStart])
		if err != nil {
			return nil, err
		}
		c.scores = append(c.scores, scores)
		c.noiseLen += len(scores)
		return allIndices(v.fullOut), nil
	}
	if err := walkPlanned(spec, weights, choose, func(*visit) error { return nil }); err != nil {
		return nil, err
	}
	return c, nil
}

// NoiseLen is the number of standard-normal draws one jittered plan consumes:
// one per scored structure, whatever the ratio.
func (c *Context) NoiseLen() int { return c.noiseLen }

// Plan keeps the most important (1−ratio) fraction of each layer's
// structures, their scores scaled by exp(jitter·noise[i]) first when noise is
// non-empty (DrawNoise; NoiseLen values, one per scored structure in walk
// order).
func (c *Context) Plan(ratio, jitter float64, noise []float64) (*Plan, error) {
	if err := checkRatioJitter(ratio, jitter); err != nil {
		return nil, err
	}
	if len(noise) != 0 && len(noise) != c.noiseLen {
		return nil, fmt.Errorf("prune: %d noise draws for %d scored structures", len(noise), c.noiseLen)
	}
	plan := &Plan{Model: c.spec.Name, Ratio: ratio, Kept: make(map[string][]int, len(c.scores)+1), spec: c.spec}
	sc := scratchPool.Get().(*planScratch)
	defer scratchPool.Put(sc)
	layer, drawn := 0, 0
	choose := func(v *visit, _ []*tensor.Tensor, forced []int) ([]int, error) {
		if forced != nil {
			return append([]int(nil), forced...), nil
		}
		scores := c.scores[layer]
		layer++
		if len(noise) != 0 {
			sc.jittered = slices.Grow(sc.jittered[:0], len(scores))[:len(scores)]
			for i, s := range scores {
				sc.jittered[i] = s * math.Exp(jitter*noise[drawn+i])
			}
			drawn += len(scores)
			scores = sc.jittered
		}
		return topK(scores, keepCount(v.fullOut, ratio), sc), nil
	}
	record := func(v *visit) error {
		plan.Kept[v.l.Name] = v.keptOut
		plan.visits = append(plan.visits, *v)
		return nil
	}
	if err := walkPlanned(c.spec, c.weights, choose, record); err != nil {
		return nil, err
	}
	return plan, nil
}

// Shrink extracts the plan's sub-model from the context's global model.
func (c *Context) Shrink(plan *Plan) (*zoo.Spec, []*tensor.Tensor, error) {
	return Shrink(c.spec, c.weights, plan)
}

// planScratch is the per-call scratch of one plan construction: the jittered
// copy of a layer's scores and the keys topK's selection permutes.
type planScratch struct {
	jittered, keys []float64
}

// scratchPool recycles planScratch values — one per concurrently planning
// goroutine, each grown once to the widest layer.
var scratchPool = sync.Pool{New: func() any { return new(planScratch) }}

// structureScores computes the l1 importance of each output structure: the
// sum of absolute kernel weights per filter (conv) or absolute incoming
// weights per neuron (dense), per the paper.
func structureScores(v *visit, w *tensor.Tensor) ([]float64, error) {
	var per int
	switch v.l.Kind {
	case zoo.KindConv:
		if len(w.Shape) != 4 || w.Shape[0] != v.fullOut {
			return nil, fmt.Errorf("prune: conv %q weight shape %v", v.l.Name, w.Shape)
		}
		per = w.Shape[1] * w.Shape[2] * w.Shape[3]
	case zoo.KindDense:
		if len(w.Shape) != 2 || w.Shape[0] != v.fullOut {
			return nil, fmt.Errorf("prune: dense %q weight shape %v", v.l.Name, w.Shape)
		}
		per = w.Shape[1]
	default:
		return nil, fmt.Errorf("prune: no scores for layer kind %v", v.l.Kind)
	}
	scores := make([]float64, v.fullOut)
	for i := range scores {
		scores[i] = tensor.AbsSumSlice(w.Data[i*per : (i+1)*per])
	}
	return scores, nil
}

// scoreKey orders scores for selection: a NaN score (a diverged model) ranks
// below every number, so the comparison stays a total order and a layer
// always keeps exactly k structures.
func scoreKey(s float64) float64 {
	if math.IsNaN(s) {
		return math.Inf(-1)
	}
	return s
}

// topK returns the indices of the k largest scores, sorted ascending. Ties
// break toward the lower index, so plans are deterministic. It finds the
// k-th largest score with an O(n) selection on scratch keys and keeps
// everything above it plus the lowest-indexed ties — exactly the prefix a
// stable descending sort of the indices would keep.
func topK(scores []float64, k int, sc *planScratch) []int {
	n := len(scores)
	kept := make([]int, 0, k)
	if k >= n {
		for i := 0; i < n; i++ {
			kept = append(kept, i)
		}
		return kept
	}
	sc.keys = slices.Grow(sc.keys[:0], n)[:n]
	for i, s := range scores {
		sc.keys[i] = scoreKey(s)
	}
	threshold := SelectKth(sc.keys, n-k)
	ties := k
	for _, s := range scores {
		if scoreKey(s) > threshold {
			ties--
		}
	}
	for i, s := range scores {
		switch key := scoreKey(s); {
		case key > threshold:
			kept = append(kept, i)
		case key < threshold:
			// below the cut
		case ties > 0:
			kept = append(kept, i)
			ties--
		}
	}
	return kept
}

// SelectKth returns the value that would sit at ascending index k if s
// were fully sorted, partially reordering s in place: iterative Hoare
// quickselect with a median-of-three pivot — deterministic, allocation-
// free, O(n) expected. Structure selection here, and the round engine's
// deadline quantile and top-K upload threshold, use it in place of a full
// sort. s must not contain NaN.
//
//fedmp:allocfree
func SelectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		// Median-of-three pivot dodges quadratic behaviour on sorted runs.
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for pivot < s[j] {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// planChoose returns a chooseFn that reads kept sets from an existing plan,
// validating structural constraints as it goes.
func planChoose(plan *Plan) chooseFn {
	return func(v *visit, _ []*tensor.Tensor, forced []int) ([]int, error) {
		kept, ok := plan.Kept[v.l.Name]
		if !ok {
			return nil, fmt.Errorf("prune: plan has no entry for layer %q", v.l.Name)
		}
		if forced != nil && !equalInts(kept, forced) {
			return nil, fmt.Errorf("prune: plan entry for %q violates a structural constraint", v.l.Name)
		}
		for i, x := range kept {
			if x < 0 || x >= v.fullOut || (i > 0 && kept[i-1] >= x) {
				return nil, fmt.Errorf("prune: plan entry for %q is not a sorted subset of [0,%d)", v.l.Name, v.fullOut)
			}
		}
		return kept, nil
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// KeptFraction returns the fraction of the model's scalar parameters the
// plan retains; 1−KeptFraction is the realised parameter-level pruning rate
// (it differs from Ratio because inputs and outputs prune jointly).
func KeptFraction(spec *zoo.Spec, weights []*tensor.Tensor, plan *Plan) (float64, error) {
	vs, err := plan.resolved(spec)
	if err != nil {
		return 0, err
	}
	if err := checkTensors(spec, vs, weights); err != nil {
		return 0, err
	}
	var total, kept int
	for i := range vs {
		v := &vs[i]
		switch v.l.Kind {
		case zoo.KindConv:
			w := weights[v.paramStart]
			per := w.Shape[2] * w.Shape[3]
			total += w.Size() + v.fullOut
			kept += len(v.keptOut)*len(v.keptIn)*per + len(v.keptOut)
		case zoo.KindBatchNorm:
			total += 4 * v.fullOut
			kept += 4 * len(v.keptOut)
		case zoo.KindDense:
			total += v.fullOut*v.fullIn + v.fullOut
			kept += len(v.keptOut)*len(v.keptIn) + len(v.keptOut)
		}
	}
	if total == 0 {
		return 1, nil
	}
	return float64(kept) / float64(total), nil
}
