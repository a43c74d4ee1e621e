package core

import (
	"fmt"
	"math/rand"
	"slices"

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
	// ctx and noise are Assign's per-round scratch: the global model's
	// scores, rescored in place each round, and every worker's plan noise,
	// back to back.
	ctx   PlanContext
	noise []float64
	// slots holds each worker slot's plan, sub-model description and
	// sub-model weights, rebuilt in place whenever the slot is assigned: an
	// executor never has two of a slot's assignments in flight, and each
	// aggregates its outputs before the slot is assigned again.
	slots []Pruned
	// out, errs, decideSecs and pruneSecs are Assign's result and per-worker
	// scratch, re-sliced every round.
	out                   []Assignment
	errs                  []error
	decideSecs, pruneSecs []float64
}

func newFedMP(fam Family, cfg *Config, fixed bool) (*fedMP, error) {
	s := &fedMP{fam: fam, cfg: cfg, fixed: fixed, planRng: rand.New(rand.NewSource(cfg.Seed + 555)), slots: make([]Pruned, cfg.Workers)}
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
// The global model is scored once (Family.PlanContext) and every worker's
// plan noise is drawn serially in worker order: the planRng stream is part of
// the trajectory, and a plan draws NoiseLen values whatever its ratio, so the
// draws need no decision first. One sharded pass then decides and prunes per
// worker, results landing at the worker's index: the agent's Select (each
// agent owns its generator), then the top-k selection and the sub-model
// extraction into the worker's slot, which only read shared state. Each
// worker has one decision stopwatch and one pruning stopwatch, and
// DecisionSeconds and PruneSeconds sum their readings in worker order; the
// scoring and noise drawing all workers share is on the first worker's
// pruning stopwatch (which therefore also spans that worker's Select). The
// returned list is fedMP's, valid until the next Assign.
func (s *fedMP) Assign(info *RoundInfo, workers []int) ([]Assignment, error) {
	if len(workers) == 0 {
		return nil, nil
	}
	warmup := info.Round <= s.cfg.WarmupRounds || info.Round == 0
	clock := s.cfg.Clock
	first := clock.Stopwatch()
	ctx, err := s.fam.PlanContext(info.Global, s.ctx)
	if err != nil {
		return nil, fmt.Errorf("core: scoring the global model: %w", err)
	}
	s.ctx = ctx
	noiseLen := 0
	if s.cfg.PlanJitter > 0 {
		noiseLen = ctx.NoiseLen()
	}
	noise := s.noise[:0]
	for range workers {
		noise = prune.DrawNoise(noise, noiseLen, s.cfg.PlanJitter, s.planRng)
	}
	s.noise = noise

	n := len(workers)
	s.out, s.errs = slices.Grow(s.out[:0], n)[:n], slices.Grow(s.errs[:0], n)[:n]
	s.decideSecs, s.pruneSecs = slices.Grow(s.decideSecs[:0], n)[:n], slices.Grow(s.pruneSecs[:0], n)[:n]
	out, errs, decideSecs, pruneSecs := s.out, s.errs, s.decideSecs, s.pruneSecs
	clear(decideSecs)
	shard(n, func(_, i int) {
		a := &out[i]
		*a = Assignment{Worker: workers[i], Iters: s.cfg.LocalIters, Warmup: warmup}
		if !warmup {
			decide := clock.Stopwatch()
			a.Ratio = s.agents[a.Worker].Select()
			decideSecs[i] = clock.Since(decide)
		}
		shrink := first
		if i > 0 {
			shrink = clock.Stopwatch()
		}
		slot := &s.slots[a.Worker]
		errs[i] = ctx.MakePlan(a.Ratio, s.cfg.PlanJitter, noise[i*noiseLen:(i+1)*noiseLen], slot)
		a.Plan, a.Desc, a.Weights = slot.Plan, slot.Desc, slot.Weights
		if errs[i] == nil {
			a.Base, errs[i] = s.base(info.Global, a.Plan)
		}
		pruneSecs[i] = clock.Since(shrink)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: pruning for worker %d: %w", workers[i], err)
		}
		info.DecisionSeconds += decideSecs[i]
		info.PruneSeconds += pruneSecs[i]
	}
	return out, nil
}

// base returns the model R2SP reads a worker's pruned coordinates from at
// aggregation. That is the dispatch-time global model itself, shared by
// reference: aggregation builds the new global in another generation, and
// the driver recycles a generation only once no in-flight Base reads it, so
// the PS holds no residual model per worker. Only QuantizeResiduals
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
// reference yields NaN, this the trained weight.) The pass is sharded by row
// block: each shard item owns one block of every tensor, walks the
// participants in order over its rows and then scales them, so every
// coordinate is summed in participant order whatever the executor count.
// The mean is built in dst (nil: a new model), each shard item zeroing its
// own rows first.
func recoveredMean(fam Family, dst, global []*tensor.Tensor, outs []Output, r2sp bool) ([]*tensor.Tensor, error) {
	if len(outs) == 0 {
		return global, nil
	}
	acc := modelIn(dst, global)
	inv := float32(1) / float32(len(outs))
	parts := executors(len(outs))
	errs := make([]error, parts)
	shard(parts, func(_, part int) {
		for _, a := range acc {
			lo, hi := prune.RowBlock(a.Shape[0], part, parts)
			width := len(a.Data) / a.Shape[0]
			clear(a.Data[lo*width : hi*width])
		}
		for i := range outs {
			o := &outs[i]
			base := o.Base
			if !r2sp {
				base = nil
			}
			if err := fam.Accumulate(acc, o.Plan, o.NewWeights, base, part, parts); err != nil {
				errs[part] = fmt.Errorf("core: recovering worker %d: %w", o.Worker, err)
				return
			}
		}
		for _, a := range acc {
			lo, hi := prune.RowBlock(a.Shape[0], part, parts)
			width := len(a.Data) / a.Shape[0]
			for j := lo * width; j < hi*width; j++ {
				a.Data[j] *= inv
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// Aggregate implements Strategy: model recovery plus residual addition and
// parameter averaging (phase ③ of Fig. 1), then the Eq. 8 reward updates.
func (s *fedMP) Aggregate(info *RoundInfo, outs []Output, dropped []Assignment) ([]*tensor.Tensor, error) {
	newGlobal, err := recoveredMean(s.fam, info.Next, info.Global, outs, s.cfg.Sync == SyncR2SP)
	if err != nil {
		return nil, err
	}

	// Reward bookkeeping (Eq. 8). The numerator is each worker's own loss
	// improvement against the previous round's global loss — "the
	// contribution of the workers to model convergence" — so over-pruned
	// workers whose local loss stalls are penalised even when their timing
	// fits. Dropped workers earn zero so their agents learn the chosen
	// ratio missed the deadline. The mean time is formed serially; then each
	// agent observes as its own shard item: an agent has at most one
	// un-observed Select, so no two items reach the same agent.
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
		n := len(outs)
		shard(n+len(dropped), func(_, i int) {
			if i >= n {
				if a := &dropped[i-n]; !a.Warmup {
					s.agents[a.Worker].Observe(0)
				}
				return
			}
			if o := &outs[i]; !o.Warmup {
				improvement := relativeImprovement(info.PrevLoss, o.TrainLoss)
				s.agents[o.Worker].Observe(eq8Reward(improvement, o.Total, meanT))
			}
		})
	}
	return newGlobal, nil
}
