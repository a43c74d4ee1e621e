package core

import (
	"fmt"
	"math/rand"

	"fedmp/internal/bandit"
	"fedmp/internal/prune"
	"fedmp/internal/tensor"
)

// fedMP is the paper's method: per-worker E-UCB agents pick pruning ratios,
// the PS prunes the global model per worker (distributed model pruning,
// §III-B), and aggregation recovers sub-models and adds residuals (R2SP,
// §III-C) — or skips the residuals under the degraded BSP scheme (Fig. 7).
//
// With fixed == true the agents are replaced by constant-ratio policies
// (StrategyFixed), which drives the Fig. 2 and Fig. 5 ratio sweeps.
type fedMP struct {
	fam     Family
	cfg     *Config
	agents  []bandit.Policy
	planRng *rand.Rand
	fixed   bool
	// noise is Assign's per-round scratch: every worker's plan noise, back
	// to back.
	noise []float64
}

func newFedMP(fam Family, cfg *Config, fixed bool) (*fedMP, error) {
	s := &fedMP{fam: fam, cfg: cfg, fixed: fixed, planRng: rand.New(rand.NewSource(cfg.Seed + 555))}
	s.agents = make([]bandit.Policy, cfg.Workers)
	for i := range s.agents {
		if fixed {
			s.agents[i] = bandit.Fixed{Ratio: cfg.FixedRatio}
			continue
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(i)))
		a, err := newPolicy(cfg, rng)
		if err != nil {
			return nil, err
		}
		s.agents[i] = a
	}
	return s, nil
}

// newPolicy builds the configured pruning-ratio policy (E-UCB by default;
// discrete UCB1 and ε-greedy for the ablation).
func newPolicy(cfg *Config, rng *rand.Rand) (bandit.Policy, error) {
	maxRatio := cfg.Bandit.MaxRatio
	if maxRatio == 0 {
		maxRatio = 0.8
	}
	switch cfg.Policy {
	case "", "eucb":
		return bandit.NewAgent(cfg.Bandit, rng)
	case "discrete":
		return bandit.NewDiscreteUCB(bandit.GridArms(9, maxRatio))
	case "greedy":
		return bandit.NewEpsilonGreedy(0.1, bandit.GridArms(9, maxRatio), rng)
	default:
		return nil, fmt.Errorf("core: unknown ratio policy %q", cfg.Policy)
	}
}

// Name implements Strategy.
func (s *fedMP) Name() string {
	if s.fixed {
		return fmt.Sprintf("fixed(%.2f)", s.cfg.FixedRatio)
	}
	return "fedmp"
}

// ExportBandits implements BanditPersistent: one state per worker agent.
func (s *fedMP) ExportBandits() []*bandit.State {
	out := make([]*bandit.State, len(s.agents))
	for i, a := range s.agents {
		if p, ok := a.(bandit.Persistent); ok {
			out[i] = p.Export()
		}
	}
	return out
}

// RestoreBandits implements BanditPersistent. Policies validate their own
// state, so a checkpoint from a differently configured run (other partition
// bounds, other arm grid) is rejected rather than silently adopted.
func (s *fedMP) RestoreBandits(sts []*bandit.State) error {
	if len(sts) == 0 {
		return nil
	}
	if len(sts) != len(s.agents) {
		return fmt.Errorf("core: %d bandit states for %d workers", len(sts), len(s.agents))
	}
	for i, st := range sts {
		if st == nil {
			continue
		}
		p, ok := s.agents[i].(bandit.Persistent)
		if !ok {
			return fmt.Errorf("core: worker %d policy %T cannot be restored", i, s.agents[i])
		}
		if err := p.Restore(st); err != nil {
			return fmt.Errorf("core: restoring worker %d policy: %w", i, err)
		}
	}
	return nil
}

// Assign implements Strategy: adaptive model pruning (phase ① of Fig. 1).
// The ratio decisions come first, serially, then the global model is scored
// once (Family.PlanContext) and every worker's plan noise is drawn serially
// in worker order — the bandit and planRng streams are part of the
// trajectory. What is left per worker, the top-k selection and the sub-model
// extraction, only reads shared state and runs sharded across cores, results
// landing at the worker's index. Each worker has one pruning stopwatch and
// PruneSeconds sums their readings in worker order; the scoring and noise
// drawing all workers share is on the first worker's.
func (s *fedMP) Assign(info *RoundInfo, workers []int) ([]Assignment, error) {
	if len(workers) == 0 {
		return nil, nil
	}
	warmup := info.Round <= s.cfg.WarmupRounds || info.Round == 0
	out := make([]Assignment, len(workers))
	for i, w := range workers {
		ratio := 0.0
		if !warmup {
			decide := s.cfg.Clock.Stopwatch()
			ratio = s.agents[w].Select()
			info.DecisionSeconds += decide()
		}
		out[i] = Assignment{Worker: w, Ratio: ratio, Iters: s.cfg.LocalIters, Warmup: warmup}
	}

	first := s.cfg.Clock.Stopwatch()
	ctx, err := s.fam.PlanContext(info.Global)
	if err != nil {
		return nil, fmt.Errorf("core: scoring the global model: %w", err)
	}
	noiseLen := 0
	if s.cfg.PlanJitter > 0 {
		noiseLen = ctx.NoiseLen()
	}
	noise := s.noise[:0]
	for range workers {
		noise = prune.DrawNoise(noise, noiseLen, s.cfg.PlanJitter, s.planRng)
	}
	s.noise = noise

	errs := make([]error, len(workers))
	secs := make([]float64, len(workers))
	shard(len(workers), func(_, i int) {
		shrink := first
		if i > 0 {
			shrink = s.cfg.Clock.Stopwatch()
		}
		a := &out[i]
		a.Plan, a.Desc, a.Weights, errs[i] = ctx.MakePlan(a.Ratio, s.cfg.PlanJitter, noise[i*noiseLen:(i+1)*noiseLen])
		if errs[i] == nil {
			a.Base, errs[i] = s.base(info.Global, a.Plan)
		}
		secs[i] = shrink()
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: pruning for worker %d: %w", workers[i], err)
		}
		info.PruneSeconds += secs[i]
	}
	return out, nil
}

// base returns the model R2SP reads a worker's pruned coordinates from at
// aggregation. That is the dispatch-time global model itself, shared by
// reference: aggregation builds a new global and never writes the old one,
// so the PS holds no residual model per worker. Only QuantizeResiduals
// materialises one — the int8 scale needs the whole residual tensor — and
// aggregation then sees the dequantized values, so the quantization error
// flows into the recovered coordinates exactly as it would in production
// (kept coordinates quantize to an exact zero and are never read).
func (s *fedMP) base(global []*tensor.Tensor, plan any) ([]*tensor.Tensor, error) {
	if !s.cfg.QuantizeResiduals {
		return global, nil
	}
	sparse, err := s.fam.Sparse(global, plan)
	if err != nil {
		return nil, err
	}
	return prune.QuantizeResiduals(prune.ResidualOf(global, sparse)).Dequantize(), nil
}

// recoveredMean is phase ③ of Fig. 1 for the pruning strategies: the mean
// over participants of their recovered sub-models plus residuals (R2SP), or
// of the recovered sub-models alone (BSP). It is one fused pass per
// participant, in participant order, through Family.Accumulate, so for
// finite models it equals Recover + residual + meanWeights bit for bit: a
// kept coordinate adds w + (g − g) = w, a pruned one 0 + (g − 0) = g, and
// the sum starts at +0 and therefore never becomes −0, so the sign of a
// zero addend cannot show. (At a kept coordinate of an ±Inf global the
// reference yields NaN, this the trained weight.)
func recoveredMean(fam Family, global []*tensor.Tensor, outs []Output, r2sp bool) ([]*tensor.Tensor, error) {
	if len(outs) == 0 {
		return global, nil
	}
	acc := make([]*tensor.Tensor, len(global))
	for i, g := range global {
		acc[i] = tensor.New(g.Shape...)
	}
	for _, o := range outs {
		base := o.Base
		if !r2sp {
			base = nil
		}
		if err := fam.Accumulate(acc, o.Plan, o.NewWeights, base); err != nil {
			return nil, fmt.Errorf("core: recovering worker %d: %w", o.Worker, err)
		}
	}
	inv := float32(1) / float32(len(outs))
	for _, a := range acc {
		a.Scale(inv)
	}
	return acc, nil
}

// Aggregate implements Strategy: model recovery plus residual addition and
// parameter averaging (phase ③ of Fig. 1), then the Eq. 8 reward updates.
func (s *fedMP) Aggregate(info *RoundInfo, outs []Output, dropped []Assignment) ([]*tensor.Tensor, error) {
	newGlobal, err := recoveredMean(s.fam, info.Global, outs, s.cfg.Sync == SyncR2SP)
	if err != nil {
		return nil, err
	}

	// Reward bookkeeping (Eq. 8). The numerator is each worker's own loss
	// improvement against the previous round's global loss — "the
	// contribution of the workers to model convergence" — so over-pruned
	// workers whose local loss stalls are penalised even when their timing
	// fits. Dropped workers earn zero so their agents learn the chosen
	// ratio missed the deadline.
	if !s.fixed {
		var meanT float64
		var counted int
		for _, o := range outs {
			if !o.Warmup {
				meanT += o.Total
				counted++
			}
		}
		if counted > 0 {
			meanT /= float64(counted)
		}
		for _, o := range outs {
			if o.Warmup {
				continue
			}
			improvement := relativeImprovement(info.PrevLoss, o.TrainLoss)
			s.agents[o.Worker].Observe(eq8Reward(improvement, o.Total, meanT))
		}
		for _, a := range dropped {
			if a.Warmup {
				continue
			}
			s.agents[a.Worker].Observe(0)
		}
	}
	return newGlobal, nil
}
