package core

import (
	"fmt"
	"math"

	"fedmp/internal/tensor"
)

// Assignment is the work order the parameter server sends one worker for
// one round.
type Assignment struct {
	// Worker is the worker index.
	Worker int
	// Ratio is the pruning ratio this assignment was built with.
	Ratio float64
	// Plan is the pruning plan (nil for a full model).
	Plan any
	// Desc describes the architecture the worker must build.
	Desc any
	// Weights are the initial parameters for Desc.
	Weights []*tensor.Tensor
	// Base is the global-shaped model R2SP reads this worker's pruned
	// coordinates from when it aggregates: the global model at dispatch
	// time, shared by reference and never written (or, under
	// QuantizeResiduals, the worker's int8 round-tripped residual model);
	// nil for strategies that do not recover.
	Base []*tensor.Tensor
	// Iters is the number of local SGD iterations.
	Iters int
	// ProxMu, when non-zero, adds the FedProx proximal term pulling the
	// local model toward Weights.
	ProxMu float32
	// UploadK, when positive, makes the worker upload only the top-K
	// fraction of its update's coordinates (FlexCom compression) instead
	// of full weights.
	UploadK float64
	// Warmup marks assignments issued before pruning begins (including the
	// asynchronous engine's initial dispatch); bandit bookkeeping skips
	// them.
	Warmup bool
}

// Output is a worker's result for one assignment.
type Output struct {
	Assignment
	// NewWeights are the trained parameters (same shapes as
	// Assignment.Weights); nil when UploadK is set.
	NewWeights []*tensor.Tensor
	// Update is the sparse top-K update in global shape (UploadK mode).
	Update []*tensor.Tensor
	// TrainLoss is the mean local training loss over the round.
	TrainLoss float64
	// CompTime, CommTime and Total are virtual seconds.
	CompTime, CommTime, Total float64
	// DownBytes and UpBytes are the transfer sizes.
	DownBytes, UpBytes int64
}

// RoundInfo is the server-side view a strategy works with.
type RoundInfo struct {
	// Round numbers the dispatch the strategy is assigning for: the 1-based
	// round index in lockstep runs, one behind it under Alg. 2, whose initial
	// dispatch is 0 — the server has observed nothing yet (see
	// Executor.Workers).
	Round int
	// Global is the current global model.
	Global []*tensor.Tensor
	// PrevLoss is the mean local training loss of the previous round
	// (NaN before the first aggregation).
	PrevLoss float64
	// PrevTimes holds each worker's most recent total round time (0 if the
	// worker has not completed a round yet).
	PrevTimes []float64
	// PrevCommTimes holds each worker's most recent communication time.
	PrevCommTimes []float64
	// MeanRoundTime is the running mean of completed round durations.
	MeanRoundTime float64

	// DecisionSeconds and PruneSeconds accumulate *real* wall-clock time
	// spent deciding ratios and pruning models (Fig. 11); strategies add
	// to them during Assign.
	DecisionSeconds, PruneSeconds float64
}

// Strategy is one federated-learning method. Assign produces work orders for
// the given workers against the current global model; Aggregate folds the
// round's outputs into a new global model. dropped lists assignments whose
// workers missed the deadline (they still need bandit bookkeeping).
type Strategy interface {
	Name() string
	Assign(info *RoundInfo, workers []int) ([]Assignment, error)
	Aggregate(info *RoundInfo, outs []Output, dropped []Assignment) ([]*tensor.Tensor, error)
}

// NewStrategy constructs the strategy selected by cfg. fam supplies the
// model algebra.
func NewStrategy(fam Family, cfg *Config) (Strategy, error) {
	switch cfg.Strategy {
	case StrategyFedMP:
		return newFedMP(fam, cfg, false)
	case StrategyFixed:
		return newFedMP(fam, cfg, true)
	case StrategySynFL:
		return &synFL{fam: fam, cfg: cfg}, nil
	case StrategyUPFL:
		return newUPFL(fam, cfg)
	case StrategyFedProx:
		return &fedProx{fam: fam, cfg: cfg}, nil
	case StrategyFlexCom:
		return &flexCom{fam: fam, cfg: cfg}, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q", cfg.Strategy)
	}
}

// meanTrainLoss averages the participating workers' local losses.
func meanTrainLoss(outs []Output) float64 {
	if len(outs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, o := range outs {
		s += o.TrainLoss
	}
	return s / float64(len(outs))
}

// relativeImprovement returns (prev − cur)/prev, the ΔLoss numerator of
// Eq. 8 normalised by the loss scale so rewards are comparable across
// training stages. Zero before the first aggregation.
func relativeImprovement(prev, cur float64) float64 {
	if math.IsNaN(prev) || prev <= 0 {
		return 0
	}
	return (prev - cur) / prev
}

// rewardGapFloor floors the |Tₙ − T̄|/T̄ denominator of Eq. 8 so a worker
// landing exactly on the mean completion time gets a large, finite reward.
const rewardGapFloor = 0.05

// rewardImprovementFloor floors the ΔLoss numerator of Eq. 8. Late in
// training per-round loss improvements hover around zero, which would erase
// the completion-time-fitting signal entirely; the floor keeps the reward
// proportional to 1/gap so ratio choices still track worker capabilities.
const rewardImprovementFloor = 0.004

// eq8Reward computes the paper's reward for one worker: loss improvement
// divided by the (normalised) gap between the worker's completion time and
// the round mean.
func eq8Reward(lossImprovement, workerTime, meanTime float64) float64 {
	if meanTime <= 0 {
		return 0
	}
	if lossImprovement < rewardImprovementFloor {
		lossImprovement = rewardImprovementFloor
	}
	gap := math.Abs(workerTime-meanTime) / meanTime
	if gap < rewardGapFloor {
		gap = rewardGapFloor
	}
	return lossImprovement / gap
}

// meanWeights averages a set of same-shaped weight lists.
func meanWeights(sets [][]*tensor.Tensor) []*tensor.Tensor {
	if len(sets) == 0 {
		panic("core: meanWeights of nothing")
	}
	out := make([]*tensor.Tensor, len(sets[0]))
	inv := float32(1) / float32(len(sets))
	for i := range out {
		acc := tensor.New(sets[0][i].Shape...)
		for _, s := range sets {
			acc.Add(s[i])
		}
		acc.Scale(inv)
		out[i] = acc
	}
	return out
}
