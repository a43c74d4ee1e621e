// Package core implements the FedMP federated-learning framework of the
// paper: the round engine (adaptive pruning → local training → aggregation,
// Fig. 1), the R2SP and BSP synchronization schemes (§III-C), the E-UCB
// pruning-ratio controller wiring (§IV), the asynchronous variant (Alg. 2),
// the fault-tolerance deadline mechanism (§V-A), and the four baselines the
// evaluation compares against (Syn-FL, UP-FL, FedProx, FlexCom).
//
// Model-family specifics (image classifiers vs the LSTM language model) are
// hidden behind the Family interface so a single engine drives every
// experiment.
package core

import (
	"fmt"
	"math/rand"

	"fedmp/internal/data"
	"fedmp/internal/nn"
	"fedmp/internal/prune"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// Source yields training minibatches for one worker's local shard. A batch
// is the source's own buffer, valid until the next call.
type Source interface {
	Next() *nn.Batch
}

// Family abstracts one model family (image classifier or language model)
// for the round engine: building networks, pruning, R2SP model algebra and
// data plumbing.
type Family interface {
	// Name identifies the family instance (model name).
	Name() string
	// InitWeights returns freshly initialised global weights.
	InitWeights(seed int64) []*tensor.Tensor
	// FullDesc returns the description of the unpruned architecture.
	FullDesc() any
	// BuildNet constructs a trainable network for a (possibly pruned)
	// description; callers load weights with nn.SetWeights, so the
	// parameters come zero-initialised and nothing is seeded or drawn —
	// unless a layer keeps the rng (Dropout), which keeps the seeded build.
	BuildNet(desc any, seed int64) (nn.Network, error)
	// NetWidths appends to dst the widths nn.Network.Reshape takes to turn
	// a network BuildNet made from one reusable description into
	// BuildNet(desc), and reports whether desc is reusable: false when a
	// layer carries state the weights do not reach (a Dropout layer's mask
	// stream) or desc does not have this family's architecture.
	NetWidths(dst []int, desc any) (widths []int, reusable bool)
	// MakePlan prunes the global model at the given ratio, returning the
	// plan, the sub-model description and the extracted sub-weights.
	// Ratio 0 returns a plan that keeps everything. jitter adds
	// multiplicative log-normal noise to the importance scores (see
	// prune.BuildPlanJittered); 0 or a nil rng is deterministic. It is
	// PlanContext, the context's NoiseLen draws from rng, then its MakePlan.
	MakePlan(weights []*tensor.Tensor, ratio, jitter float64, rng *rand.Rand) (plan any, subDesc any, subW []*tensor.Tensor, err error)
	// PlanContext scores the global model's structures once, for a round of
	// plans against it, in dst: a context an earlier PlanContext of the
	// family returned that no plan is being built from any more, refilled
	// in place. A nil dst allocates.
	PlanContext(weights []*tensor.Tensor, dst PlanContext) (PlanContext, error)
	// Accumulate adds one participant's term of the recovered average to
	// acc, a global-shaped running sum: the trained sub-model's value at the
	// coordinates the plan kept and base's value at the pruned ones (R2SP;
	// base is the global model the sub-model was cut from), or nothing there
	// when base is nil (BSP). Summing participants through it equals summing
	// their Recover-ed models plus residuals, without building either. It
	// touches only row block part of parts of every tensor
	// (prune.RowBlock over the first dimension), so the blocks can be summed
	// concurrently; its checks fail alike for every block.
	Accumulate(acc []*tensor.Tensor, plan any, subW, base []*tensor.Tensor, part, parts int) error
	// Recover scatters sub-model weights back to global shape (zeros at
	// pruned coordinates). With Sparse it is the reference algebra of
	// §III-C; the round engine aggregates through Accumulate.
	Recover(plan any, subW []*tensor.Tensor) ([]*tensor.Tensor, error)
	// Sparse zeroes the pruned coordinates of global-shaped weights.
	Sparse(weights []*tensor.Tensor, plan any) ([]*tensor.Tensor, error)
	// ForwardFLOPs returns the per-sample forward cost of a description.
	ForwardFLOPs(desc any) (float64, error)
	// Sources partitions the training data into per-worker batch sources.
	Sources(workers int, nonIID NonIID, batchSize int, seed int64) ([]Source, error)
	// TestBatch returns the evaluation batch (at most limit examples;
	// limit <= 0 means all).
	TestBatch(limit int) *nn.Batch
	// Metric names the quality metric ("accuracy" or "perplexity").
	Metric() string
}

// PlanContext is the pruning state the plans of one round share (see
// prune.Context). It is read-only, so MakePlan may run from many goroutines
// on distinct destinations.
type PlanContext interface {
	// NoiseLen is the number of standard-normal draws one jittered plan
	// consumes, whatever its ratio.
	NoiseLen() int
	// MakePlan is Family.MakePlan with the noise already drawn
	// (prune.DrawNoise order; empty noise is the deterministic plan), built
	// in dst: whatever dst holds from an earlier MakePlan of the family is
	// rebuilt in place, so nobody may still be reading it.
	MakePlan(ratio, jitter float64, noise []float64, dst *Pruned) error
}

// Pruned is a sub-model as the parameter server cuts it: the plan, the
// sub-model's description and its weights. Handed back to
// PlanContext.MakePlan, its buffers are refilled and re-dimensioned rather
// than reallocated, so one Pruned per worker slot serves a whole run.
type Pruned struct {
	Plan, Desc any
	Weights    []*tensor.Tensor
}

// makePlan implements Family.MakePlan on top of PlanContext.
func makePlan(f Family, weights []*tensor.Tensor, ratio, jitter float64, rng *rand.Rand) (any, any, []*tensor.Tensor, error) {
	ctx, err := f.PlanContext(weights, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	var p Pruned
	if err := ctx.MakePlan(ratio, jitter, prune.DrawNoise(nil, ctx.NoiseLen(), jitter, rng), &p); err != nil {
		return nil, nil, nil, err
	}
	return p.Plan, p.Desc, p.Weights, nil
}

// NonIID selects a data-partitioning scheme (§V-F).
type NonIID struct {
	// Kind is "iid", "label" (label-skew percent) or "missing"
	// (missing-class count). Empty means IID.
	Kind string
	// Level is the y parameter of the paper's non-IID definition.
	Level int
}

func (n NonIID) validate() error {
	switch n.Kind {
	case "", "iid", "label", "missing":
		return nil
	default:
		return fmt.Errorf("core: unknown non-IID kind %q", n.Kind)
	}
}

// ImageFamily adapts a zoo image classifier and its dataset to the engine.
type ImageFamily struct {
	Spec *zoo.Spec
	DS   *data.Dataset
}

// NewImageFamily loads the dataset paired with the model and wraps both.
func NewImageFamily(id zoo.ModelID) (*ImageFamily, error) {
	spec, err := zoo.SpecFor(id)
	if err != nil {
		return nil, err
	}
	dsID, err := data.DatasetForModel(string(id))
	if err != nil {
		return nil, err
	}
	ds, err := data.Load(dsID)
	if err != nil {
		return nil, err
	}
	return &ImageFamily{Spec: spec, DS: ds}, nil
}

// Name implements Family.
func (f *ImageFamily) Name() string { return f.Spec.Name }

// Metric implements Family.
func (f *ImageFamily) Metric() string { return "accuracy" }

// InitWeights implements Family.
func (f *ImageFamily) InitWeights(seed int64) []*tensor.Tensor {
	net, err := zoo.Build(f.Spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(fmt.Sprintf("core: building %s: %v", f.Spec.Name, err))
	}
	return nn.GetWeights(net)
}

// FullDesc implements Family.
func (f *ImageFamily) FullDesc() any { return f.Spec }

// BuildNet implements Family.
func (f *ImageFamily) BuildNet(desc any, seed int64) (nn.Network, error) {
	spec, ok := desc.(*zoo.Spec)
	if !ok {
		return nil, fmt.Errorf("core: image family got description %T", desc)
	}
	var rng *rand.Rand
	if spec.UsesRNG() {
		rng = rand.New(rand.NewSource(seed))
	}
	return zoo.Build(spec, rng)
}

// NetWidths implements Family.
func (f *ImageFamily) NetWidths(dst []int, desc any) ([]int, bool) {
	spec, ok := desc.(*zoo.Spec)
	if !ok || spec.UsesRNG() {
		return dst, false
	}
	return spec.AppendWidths(dst, f.Spec)
}

// MakePlan implements Family.
func (f *ImageFamily) MakePlan(weights []*tensor.Tensor, ratio, jitter float64, rng *rand.Rand) (any, any, []*tensor.Tensor, error) {
	return makePlan(f, weights, ratio, jitter, rng)
}

// PlanContext implements Family.
func (f *ImageFamily) PlanContext(weights []*tensor.Tensor, dst PlanContext) (PlanContext, error) {
	prev, _ := dst.(imagePlanContext)
	ctx, err := prune.NewContext(f.Spec, weights, prev.Context)
	if err != nil {
		return nil, err
	}
	return imagePlanContext{ctx}, nil
}

type imagePlanContext struct{ *prune.Context }

func (c imagePlanContext) MakePlan(ratio, jitter float64, noise []float64, dst *Pruned) error {
	plan, _ := dst.Plan.(*prune.Plan)
	subSpec, _ := dst.Desc.(*zoo.Spec)
	plan, err := c.Plan(ratio, jitter, noise, plan)
	if err != nil {
		return err
	}
	subSpec, subW, err := c.Shrink(plan, subSpec, dst.Weights)
	if err != nil {
		return err
	}
	*dst = Pruned{Plan: plan, Desc: subSpec, Weights: subW}
	return nil
}

// Accumulate implements Family.
func (f *ImageFamily) Accumulate(acc []*tensor.Tensor, plan any, subW, base []*tensor.Tensor, part, parts int) error {
	p, ok := plan.(*prune.Plan)
	if !ok {
		return fmt.Errorf("core: image family got plan %T", plan)
	}
	return prune.Accumulate(f.Spec, acc, subW, base, p, part, parts)
}

// Recover implements Family.
func (f *ImageFamily) Recover(plan any, subW []*tensor.Tensor) ([]*tensor.Tensor, error) {
	p, ok := plan.(*prune.Plan)
	if !ok {
		return nil, fmt.Errorf("core: image family got plan %T", plan)
	}
	return prune.Recover(f.Spec, subW, p)
}

// Sparse implements Family.
func (f *ImageFamily) Sparse(weights []*tensor.Tensor, plan any) ([]*tensor.Tensor, error) {
	p, ok := plan.(*prune.Plan)
	if !ok {
		return nil, fmt.Errorf("core: image family got plan %T", plan)
	}
	return prune.Sparse(f.Spec, weights, p)
}

// ForwardFLOPs implements Family.
func (f *ImageFamily) ForwardFLOPs(desc any) (float64, error) {
	spec, ok := desc.(*zoo.Spec)
	if !ok {
		return 0, fmt.Errorf("core: image family got description %T", desc)
	}
	return spec.ForwardFLOPs()
}

// Sources implements Family.
func (f *ImageFamily) Sources(workers int, nonIID NonIID, batchSize int, seed int64) ([]Source, error) {
	if err := nonIID.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var part data.Partition
	switch nonIID.Kind {
	case "", "iid":
		part = data.PartitionIID(f.DS, workers, rng)
	case "label":
		part = data.PartitionLabelSkew(f.DS, workers, nonIID.Level, rng)
	case "missing":
		part = data.PartitionMissingClasses(f.DS, workers, nonIID.Level, rng)
	}
	out := make([]Source, workers)
	for i := range out {
		if len(part[i]) == 0 {
			return nil, fmt.Errorf("core: worker %d received an empty shard", i)
		}
		out[i] = data.NewLoader(f.DS, part[i], batchSize, rand.New(rand.NewSource(seed+int64(i)+1)))
	}
	return out, nil
}

// TestBatch implements Family.
func (f *ImageFamily) TestBatch(limit int) *nn.Batch { return data.TestBatch(f.DS, limit) }

// LMFamily adapts the two-layer LSTM language model (§VI) to the engine.
type LMFamily struct {
	Cfg    zoo.LMConfig
	Corpus *data.Corpus
}

// NewLMFamily generates the synthetic corpus and wraps the LM config.
func NewLMFamily(cfg zoo.LMConfig, corpusCfg data.CorpusConfig) *LMFamily {
	return &LMFamily{Cfg: cfg, Corpus: data.GenerateCorpus(corpusCfg)}
}

// Name implements Family.
func (f *LMFamily) Name() string { return "lstm" }

// Metric implements Family.
func (f *LMFamily) Metric() string { return "perplexity" }

// InitWeights implements Family.
func (f *LMFamily) InitWeights(seed int64) []*tensor.Tensor {
	return nn.GetWeights(zoo.BuildLM(f.Cfg, rand.New(rand.NewSource(seed))))
}

// FullDesc implements Family.
func (f *LMFamily) FullDesc() any { return f.Cfg }

// BuildNet implements Family.
func (f *LMFamily) BuildNet(desc any, _ int64) (nn.Network, error) {
	cfg, ok := desc.(zoo.LMConfig)
	if !ok {
		return nil, fmt.Errorf("core: LM family got description %T", desc)
	}
	return zoo.BuildLM(cfg, nil), nil
}

// NetWidths implements Family.
func (f *LMFamily) NetWidths(dst []int, desc any) ([]int, bool) {
	cfg, ok := desc.(zoo.LMConfig)
	if !ok {
		return dst, false
	}
	return append(dst, cfg.Vocab, cfg.Embed, cfg.Hidden, cfg.SeqLen), true
}

// MakePlan implements Family.
func (f *LMFamily) MakePlan(weights []*tensor.Tensor, ratio, jitter float64, rng *rand.Rand) (any, any, []*tensor.Tensor, error) {
	return makePlan(f, weights, ratio, jitter, rng)
}

// PlanContext implements Family.
func (f *LMFamily) PlanContext(weights []*tensor.Tensor, dst PlanContext) (PlanContext, error) {
	prev, _ := dst.(lmPlanContext)
	ctx, err := prune.NewLMContext(f.Cfg, weights, prev.LMContext)
	if err != nil {
		return nil, err
	}
	return lmPlanContext{ctx}, nil
}

type lmPlanContext struct{ *prune.LMContext }

func (c lmPlanContext) MakePlan(ratio, jitter float64, noise []float64, dst *Pruned) error {
	plan, _ := dst.Plan.(*prune.LMPlan)
	plan, err := c.Plan(ratio, jitter, noise, plan)
	if err != nil {
		return err
	}
	subCfg, subW, err := c.Shrink(plan, dst.Weights)
	if err != nil {
		return err
	}
	*dst = Pruned{Plan: plan, Desc: subCfg, Weights: subW}
	return nil
}

// Accumulate implements Family.
func (f *LMFamily) Accumulate(acc []*tensor.Tensor, plan any, subW, base []*tensor.Tensor, part, parts int) error {
	p, ok := plan.(*prune.LMPlan)
	if !ok {
		return fmt.Errorf("core: LM family got plan %T", plan)
	}
	return prune.AccumulateLM(f.Cfg, acc, subW, base, p, part, parts)
}

// Recover implements Family.
func (f *LMFamily) Recover(plan any, subW []*tensor.Tensor) ([]*tensor.Tensor, error) {
	p, ok := plan.(*prune.LMPlan)
	if !ok {
		return nil, fmt.Errorf("core: LM family got plan %T", plan)
	}
	subCfg := f.Cfg
	subCfg.Hidden = len(p.Kept1)
	return prune.RecoverLM(f.Cfg, subCfg, subW, p)
}

// Sparse implements Family.
func (f *LMFamily) Sparse(weights []*tensor.Tensor, plan any) ([]*tensor.Tensor, error) {
	p, ok := plan.(*prune.LMPlan)
	if !ok {
		return nil, fmt.Errorf("core: LM family got plan %T", plan)
	}
	return prune.SparseLM(f.Cfg, weights, p)
}

// ForwardFLOPs implements Family.
func (f *LMFamily) ForwardFLOPs(desc any) (float64, error) {
	cfg, ok := desc.(zoo.LMConfig)
	if !ok {
		return 0, fmt.Errorf("core: LM family got description %T", desc)
	}
	// Matches nn.LSTMLM.ForwardFLOPs analytically.
	t := float64(cfg.SeqLen)
	h, e, v := float64(cfg.Hidden), float64(cfg.Embed), float64(cfg.Vocab)
	return t * (2*4*h*(e+h) + 2*4*h*(h+h) + 2*h*v), nil
}

// Sources implements Family. The corpus is split into contiguous streams;
// non-IID variants are not defined for the LM experiments (Table IV uses the
// default partitioning).
func (f *LMFamily) Sources(workers int, nonIID NonIID, batchSize int, seed int64) ([]Source, error) {
	if nonIID.Kind != "" && nonIID.Kind != "iid" {
		return nil, fmt.Errorf("core: non-IID partitioning is not defined for the language model")
	}
	parts := data.PartitionCorpusIID(f.Corpus, workers)
	out := make([]Source, workers)
	for i := range out {
		out[i] = data.NewSeqLoader(parts[i], f.Cfg.SeqLen, batchSize, rand.New(rand.NewSource(seed+int64(i)+1)))
	}
	return out, nil
}

// TestBatch implements Family.
func (f *LMFamily) TestBatch(limit int) *nn.Batch {
	return data.CorpusTestBatch(f.Corpus, f.Cfg.SeqLen, limit)
}
