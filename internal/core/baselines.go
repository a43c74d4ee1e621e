package core

import (
	"fmt"
	"math"
	"math/rand"

	"fedmp/internal/bandit"
	"fedmp/internal/nn"
	"fedmp/internal/tensor"
)

// synFL is the Syn-FL baseline [5]: every worker trains and transmits the
// entire model; the PS averages after all workers finish (FedAvg).
type synFL struct {
	fam Family
	cfg *Config
}

// Name implements Strategy.
func (s *synFL) Name() string { return "synfl" }

// Assign implements Strategy.
func (s *synFL) Assign(info *RoundInfo, workers []int) ([]Assignment, error) {
	out := make([]Assignment, 0, len(workers))
	for _, w := range workers {
		out = append(out, Assignment{
			Worker:  w,
			Desc:    s.fam.FullDesc(),
			Weights: nn.CloneWeights(info.Global),
			Iters:   s.cfg.LocalIters,
		})
	}
	return out, nil
}

// Aggregate implements Strategy.
func (s *synFL) Aggregate(info *RoundInfo, outs []Output, _ []Assignment) ([]*tensor.Tensor, error) {
	if len(outs) == 0 {
		return info.Global, nil
	}
	sets := make([][]*tensor.Tensor, len(outs))
	for i, o := range outs {
		sets[i] = o.NewWeights
	}
	return meanWeights(sets), nil
}

// upFL is the UP-FL baseline [15]: a *uniform* pruning ratio for all workers
// each round, adapted over rounds by a single shared agent rewarded with
// loss improvement per unit round time. Aggregation recovers with residuals
// (R2SP) so only the missing heterogeneity-awareness separates it from
// FedMP.
type upFL struct {
	fam     Family
	cfg     *Config
	agent   bandit.Policy
	planRng *rand.Rand
	// ratio is the agent's pull while pending: a round that brings no
	// reward (nothing delivered, or only warm-up arrivals under Alg. 2)
	// leaves it standing, and the next dispatch reuses it.
	ratio   float64
	pending bool
}

func newUPFL(fam Family, cfg *Config) (*upFL, error) {
	a, err := bandit.NewAgent(cfg.Bandit, rand.New(rand.NewSource(cfg.Seed+999)))
	if err != nil {
		return nil, err
	}
	return &upFL{fam: fam, cfg: cfg, agent: a, planRng: rand.New(rand.NewSource(cfg.Seed + 556))}, nil
}

// Name implements Strategy.
func (s *upFL) Name() string { return "upfl" }

// Assign implements Strategy.
func (s *upFL) Assign(info *RoundInfo, workers []int) ([]Assignment, error) {
	ratio := 0.0
	warmup := info.Round <= s.cfg.WarmupRounds || info.Round == 0
	if !warmup {
		if !s.pending {
			decide := s.cfg.Clock.Stopwatch()
			s.ratio, s.pending = s.agent.Select(), true
			info.DecisionSeconds += decide()
		}
		ratio = s.ratio
	}

	shrink := s.cfg.Clock.Stopwatch()
	plan, desc, subW, err := s.fam.MakePlan(info.Global, ratio, s.cfg.PlanJitter, s.planRng)
	if err != nil {
		return nil, err
	}
	info.PruneSeconds += shrink()

	out := make([]Assignment, 0, len(workers))
	for _, w := range workers {
		out = append(out, Assignment{
			Worker:  w,
			Ratio:   ratio,
			Plan:    plan,
			Desc:    desc,
			Weights: nn.CloneWeights(subW),
			Base:    info.Global,
			Iters:   s.cfg.LocalIters,
			Warmup:  warmup,
		})
	}
	return out, nil
}

// Aggregate implements Strategy.
func (s *upFL) Aggregate(info *RoundInfo, outs []Output, dropped []Assignment) ([]*tensor.Tensor, error) {
	newGlobal, err := recoveredMean(s.fam, info.Global, outs, true)
	if err != nil {
		return nil, err
	}
	if len(outs) == 0 || outs[0].Warmup || !s.pending {
		return newGlobal, nil
	}
	// One shared reward: loss improvement per unit of (synchronous) round
	// time, normalised by the running mean so the magnitude is stable.
	cur := meanTrainLoss(outs)
	improvement := relativeImprovement(info.PrevLoss, cur)
	var roundTime float64
	for _, o := range outs {
		if o.Total > roundTime {
			roundTime = o.Total
		}
	}
	r := 0.0
	if roundTime > 0 {
		norm := info.MeanRoundTime
		if norm <= 0 {
			norm = roundTime
		}
		r = improvement * norm / roundTime
	}
	s.agent.Observe(r)
	s.pending = false
	return newGlobal, nil
}

// fedProx is the FedProx baseline [19]: full models with a proximal term,
// and per-worker local iteration counts scaled to each worker's observed
// speed so fast workers do more work (the paper's characterisation:
// "different numbers of local iterations based on heterogeneous
// capabilities").
type fedProx struct {
	fam Family
	cfg *Config
}

// Name implements Strategy.
func (s *fedProx) Name() string { return "fedprox" }

// Assign implements Strategy.
func (s *fedProx) Assign(info *RoundInfo, workers []int) ([]Assignment, error) {
	// Mean of known previous times; workers without history get the base τ.
	var meanT float64
	var known int
	for _, t := range info.PrevTimes {
		if t > 0 {
			meanT += t
			known++
		}
	}
	if known > 0 {
		meanT /= float64(known)
	}
	out := make([]Assignment, 0, len(workers))
	for _, w := range workers {
		iters := s.cfg.LocalIters
		if meanT > 0 && info.PrevTimes[w] > 0 {
			scaled := float64(s.cfg.LocalIters) * meanT / info.PrevTimes[w]
			iters = int(math.Round(scaled))
			if iters < 1 {
				iters = 1
			}
			if iters > 3*s.cfg.LocalIters {
				iters = 3 * s.cfg.LocalIters
			}
		}
		out = append(out, Assignment{
			Worker:  w,
			Desc:    s.fam.FullDesc(),
			Weights: nn.CloneWeights(info.Global),
			Iters:   iters,
			ProxMu:  s.cfg.ProxMu,
		})
	}
	return out, nil
}

// Aggregate implements Strategy.
func (s *fedProx) Aggregate(info *RoundInfo, outs []Output, _ []Assignment) ([]*tensor.Tensor, error) {
	if len(outs) == 0 {
		return info.Global, nil
	}
	sets := make([][]*tensor.Tensor, len(outs))
	for i, o := range outs {
		sets[i] = o.NewWeights
	}
	return meanWeights(sets), nil
}

// flexCom is the FlexCom baseline [13]: workers train the full model but
// upload top-K compressed updates, with K adapted to each worker's observed
// communication time (heterogeneous compression). Computation is not
// reduced — the paper's critique of the approach. The error feedback top-K
// compression needs (without it, it is known to stall) is the worker's own
// memory: see WorkerStep.
type flexCom struct {
	fam Family
	cfg *Config
}

// Name implements Strategy.
func (s *flexCom) Name() string { return "flexcom" }

// Assign implements Strategy.
func (s *flexCom) Assign(info *RoundInfo, workers []int) ([]Assignment, error) {
	var meanComm float64
	var known int
	for _, t := range info.PrevCommTimes {
		if t > 0 {
			meanComm += t
			known++
		}
	}
	if known > 0 {
		meanComm /= float64(known)
	}
	out := make([]Assignment, 0, len(workers))
	for _, w := range workers {
		k := s.cfg.FlexComBaseK
		if meanComm > 0 && info.PrevCommTimes[w] > 0 {
			k = s.cfg.FlexComBaseK * meanComm / info.PrevCommTimes[w]
		}
		if k < 0.05 {
			k = 0.05
		}
		if k > 1 {
			k = 1
		}
		out = append(out, Assignment{
			Worker:  w,
			Desc:    s.fam.FullDesc(),
			Weights: nn.CloneWeights(info.Global),
			Iters:   s.cfg.LocalIters,
			UploadK: k,
		})
	}
	return out, nil
}

// Aggregate implements Strategy: the global model absorbs the mean of the
// sparse updates.
func (s *flexCom) Aggregate(info *RoundInfo, outs []Output, _ []Assignment) ([]*tensor.Tensor, error) {
	if len(outs) == 0 {
		return info.Global, nil
	}
	newGlobal := nn.CloneWeights(info.Global)
	inv := float32(1) / float32(len(outs))
	for _, o := range outs {
		if o.Update == nil {
			return nil, fmt.Errorf("core: flexcom worker %d returned no update", o.Worker)
		}
		for i := range newGlobal {
			newGlobal[i].AddScaled(inv, o.Update[i])
		}
	}
	return newGlobal, nil
}
