package core

import (
	"fmt"
	"math"

	"fedmp/internal/bandit"
	"fedmp/internal/cluster"
	"fedmp/internal/simclock"
)

// DefaultWeightDecay is the worker optimiser's default L2 coefficient.
const DefaultWeightDecay = 2e-3

// DefaultPlanJitter is the default importance-score noise of the pruning
// strategies (see Config.PlanJitter).
const DefaultPlanJitter = 0.3

// StrategyID names a federated-learning method.
type StrategyID string

// The methods of the paper's evaluation. StrategyFixed trains FedMP with a
// constant pruning ratio for all workers (the Fig. 2 / Fig. 5 sweeps).
const (
	StrategyFedMP   StrategyID = "fedmp"
	StrategySynFL   StrategyID = "synfl"
	StrategyUPFL    StrategyID = "upfl"
	StrategyFedProx StrategyID = "fedprox"
	StrategyFlexCom StrategyID = "flexcom"
	StrategyFixed   StrategyID = "fixed"
)

// StrategyIDs lists the five compared methods in paper order.
var StrategyIDs = []StrategyID{StrategySynFL, StrategyUPFL, StrategyFedProx, StrategyFlexCom, StrategyFedMP}

// SyncScheme selects the parameter-synchronization scheme for pruning
// strategies (§III-C, Fig. 7).
type SyncScheme string

// R2SP recovers sub-models and adds residuals before averaging; BSP averages
// the recovered (zero-filled) sub-models directly, so pruned coordinates
// decay — the degraded traditional scheme of Fig. 7.
const (
	SyncR2SP SyncScheme = "r2sp"
	SyncBSP  SyncScheme = "bsp"
)

// Config parameterises one federated simulation run.
type Config struct {
	// Strategy selects the method (default FedMP).
	Strategy StrategyID
	// Sync selects the synchronization scheme for pruning strategies
	// (default R2SP).
	Sync SyncScheme
	// Workers is the number of edge nodes (paper default 10).
	Workers int
	// LocalIters is τ, the local SGD iterations per round.
	LocalIters int
	// BatchSize is the local minibatch size.
	BatchSize int
	// LR and Momentum parameterise the worker optimiser. WeightDecay is
	// the L2 coefficient; it shrinks low-importance structures so the l1
	// ranking concentrates, which the pruning strategy relies on (set to
	// DefaultWeightDecay when zero; use a negative value to disable).
	LR, Momentum, WeightDecay float32
	// Rounds caps the number of global rounds (0 = no cap; some other
	// stopping criterion must then be set).
	Rounds int
	// TimeBudget stops the run once virtual time exceeds it (0 = none).
	TimeBudget float64
	// TargetAccuracy stops the run once test accuracy reaches it (image
	// families; 0 = none).
	TargetAccuracy float64
	// TargetLoss stops the run once test loss drops to it (0 = none); for
	// the language model this expresses a target perplexity, exp(TargetLoss).
	TargetLoss float64

	// Scenario gives the device population. Nil selects the paper default
	// (half cluster A, half cluster B).
	Scenario *cluster.Scenario
	// Population switches the engine to population mode: every round
	// samples a cohort of Workers devices from a lazily-materialized
	// population of Population.Size devices (profiles sub-seeded from
	// (Seed, deviceID), availability gated by its diurnal/outage traces)
	// instead of walking a fixed worker set. Strategies still see Workers
	// slots; slot i is the i-th sampled device of the round, so per-slot
	// state (PrevTimes, bandits, fault injection) describes the cohort
	// position, not a fixed device. Mutually exclusive with Scenario;
	// synchronous engine only. Nil (the default) keeps the legacy loop.
	Population *cluster.Population
	// NonIID selects the data partitioning (§V-F).
	NonIID NonIID

	// FixedRatio is the constant pruning ratio used by StrategyFixed.
	FixedRatio float64
	// Policy selects the pruning-ratio policy for FedMP: "eucb" (the
	// paper's algorithm, default), "discrete" (classical UCB1 over a ratio
	// grid) or "greedy" (ε-greedy). The alternatives exist for the
	// design-choice ablation.
	Policy string
	// QuantizeResiduals stores R2SP residual models with 8-bit linear
	// quantization on the PS, the §III-C memory optimisation. Aggregation
	// then adds the dequantized residuals.
	QuantizeResiduals bool
	// QuantizeWire ships assignment and result tensors over the wire with
	// 8-bit symmetric quantization whenever that is byte-cheaper than the
	// float32 encodings (per tensor; the codec falls back to full precision
	// otherwise). Both runtimes honour it identically: the TCP transport
	// sets the frame's quantize flag, and the simulation mirrors the same
	// lossy round trip on the values it trains and aggregates, so traffic
	// and model trajectories stay comparable across runtimes. Checkpoints
	// are never quantized.
	QuantizeWire bool
	// PlanJitter adds multiplicative log-normal noise to the importance
	// scores when the pruning strategies build per-worker plans, giving
	// every structure a chance to be trained (the §III-C premise of R2SP).
	// Defaults to DefaultPlanJitter; use a negative value to disable.
	PlanJitter float64
	// WarmupRounds trains the full model for the first k rounds before any
	// pruning begins, letting the l1 importance ranking differentiate from
	// its flat initialisation (pruning an untrained model removes channels
	// that are not yet unimportant; cf. the pre-training phase in [15]).
	// Applies to FedMP, UP-FL and the fixed-ratio strategy.
	WarmupRounds int
	// Bandit parameterises the E-UCB agents (FedMP and UP-FL). Zero value
	// selects engine defaults.
	Bandit bandit.Config
	// ProxMu is the FedProx proximal coefficient.
	ProxMu float32
	// FlexComBaseK is FlexCom's base upload fraction.
	FlexComBaseK float64

	// Async enables the asynchronous engine (Alg. 2) aggregating the first
	// AsyncM arrivals per round (default Workers/2). A round there waits for
	// arrivals, not for a deadline: FaultTolerance's §V-A deadline and
	// FailureRate do not apply and are ignored; Faults do (a lost
	// assignment's worker is re-dispatched once the loss surfaces).
	// Simulator only, and not with Population.
	Async  bool
	AsyncM int

	// FaultTolerance enables the §V-A deadline mechanism: the round
	// deadline is DeadlineFactor times the time at which DeadlineQuantile
	// of the workers have finished; later workers are dropped this round.
	FaultTolerance   bool
	DeadlineQuantile float64
	DeadlineFactor   float64
	// FailureRate is the per-round probability that a worker stalls
	// (fault-injection testing; requires FaultTolerance to make progress).
	FailureRate float64
	// Faults injects cluster-level failures (crashes with recovery,
	// transient stragglers, link blackouts) so the simulation exercises
	// the same partial-participation paths as the wire runtime. The zero
	// value disables injection.
	Faults cluster.FaultConfig

	// StreamMetrics replaces the unbounded per-round Stats and Points
	// appends with constant-memory streaming aggregates (Result.Stream):
	// online mean/variance plus P² quantile estimators for round times,
	// and the last/best evaluation metrics. Long population-scale runs
	// then cost O(1) result memory regardless of round count. Trajectory
	// readers (Points, Stats, BestAccWithin) see empty slices; final
	// metrics, target-crossing times and State still work.
	StreamMetrics bool

	// EvalEvery evaluates the global model every k rounds (default 1).
	EvalEvery int
	// EvalLimit caps the evaluation batch size (default 256; <=0 = all).
	EvalLimit int
	// Seed drives every random choice in the run.
	Seed int64
	// Clock measures the decision/pruning overheads reported in RoundStat
	// (Fig. 11). The engine itself never reads the wall clock — this is the
	// only time source the deterministic layers see. Nil selects
	// simclock.Wall (real measurements); use simclock.Fixed for runs whose
	// statistics must be bit-reproducible.
	Clock simclock.Clock
}

// Normalize fills unset fields with the paper's defaults and validates the
// config. Run applies it automatically; external engines (the network
// transport) call it before using the config directly.
func Normalize(c Config) (Config, error) { return c.withDefaults() }

// withDefaults fills unset fields with the paper's defaults and validates.
func (c Config) withDefaults() (Config, error) {
	if c.Strategy == "" {
		c.Strategy = StrategyFedMP
	}
	if c.Sync == "" {
		c.Sync = SyncR2SP
	}
	if c.Sync != SyncR2SP && c.Sync != SyncBSP {
		return c, fmt.Errorf("core: unknown sync scheme %q", c.Sync)
	}
	if c.Workers == 0 {
		c.Workers = 10
	}
	if c.Workers < 1 {
		return c, fmt.Errorf("core: need at least 1 worker, got %d", c.Workers)
	}
	if c.LocalIters == 0 {
		c.LocalIters = 4
	}
	if c.LocalIters < 1 {
		return c, fmt.Errorf("core: local iterations %d", c.LocalIters)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.BatchSize < 1 {
		return c, fmt.Errorf("core: batch size %d", c.BatchSize)
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.LR < 0 {
		return c, fmt.Errorf("core: learning rate %v", c.LR)
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.WeightDecay == 0 {
		c.WeightDecay = DefaultWeightDecay
	} else if c.WeightDecay < 0 {
		c.WeightDecay = 0
	}
	if c.Rounds == 0 && c.TimeBudget == 0 && c.TargetAccuracy == 0 && c.TargetLoss == 0 {
		return c, fmt.Errorf("core: no stopping criterion configured")
	}
	if c.Bandit.Lambda == 0 {
		// λ per the paper; discounted mass 1/(1−λ) must exceed the leaf
		// count MaxRatio/θ for exploitation to survive (see bandit docs).
		c.Bandit = bandit.Config{Lambda: 0.98, Theta: 0.05, MaxRatio: 0.8, ExplorationC: 0.5}
	}
	if c.FixedRatio < 0 || c.FixedRatio >= 1 {
		return c, fmt.Errorf("core: fixed ratio %v outside [0,1)", c.FixedRatio)
	}
	if c.WarmupRounds < 0 {
		return c, fmt.Errorf("core: warm-up rounds %d", c.WarmupRounds)
	}
	if c.PlanJitter == 0 {
		c.PlanJitter = DefaultPlanJitter
	} else if c.PlanJitter < 0 {
		c.PlanJitter = 0
	}
	switch c.Policy {
	case "":
		c.Policy = "eucb"
	case "eucb", "discrete", "greedy":
	default:
		return c, fmt.Errorf("core: unknown ratio policy %q", c.Policy)
	}
	if c.ProxMu == 0 {
		c.ProxMu = 0.01
	}
	if c.FlexComBaseK == 0 {
		c.FlexComBaseK = 0.25
	}
	if c.Async {
		if c.AsyncM == 0 {
			c.AsyncM = c.Workers / 2
		}
		if c.AsyncM < 1 || c.AsyncM > c.Workers {
			return c, fmt.Errorf("core: async m = %d with %d workers", c.AsyncM, c.Workers)
		}
	}
	if c.FaultTolerance {
		if c.DeadlineQuantile == 0 {
			c.DeadlineQuantile = 0.85
		}
		if c.DeadlineFactor == 0 {
			c.DeadlineFactor = 1.5
		}
		if c.DeadlineQuantile <= 0 || c.DeadlineQuantile > 1 || c.DeadlineFactor < 1 {
			return c, fmt.Errorf("core: invalid deadline parameters %v/%v", c.DeadlineQuantile, c.DeadlineFactor)
		}
	}
	if c.FailureRate < 0 || c.FailureRate >= 1 {
		return c, fmt.Errorf("core: failure rate %v outside [0,1)", c.FailureRate)
	}
	if c.Faults.Enabled() {
		var err error
		if c.Faults, err = c.Faults.Validate(); err != nil {
			return c, err
		}
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 1
	}
	if c.EvalLimit == 0 {
		c.EvalLimit = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Population != nil {
		if c.Scenario != nil {
			return c, fmt.Errorf("core: Population and Scenario are mutually exclusive")
		}
		if c.Async {
			return c, fmt.Errorf("core: population mode requires the synchronous engine")
		}
		p, err := c.Population.Normalized(c.Workers, c.Seed)
		if err != nil {
			return c, err
		}
		c.Population = &p
	}
	if c.Clock == nil {
		c.Clock = simclock.Wall{}
	}
	return c, nil
}

// Point is one evaluation of the global model.
type Point struct {
	// Round is the global round index (1-based; 0 is the initial model).
	Round int
	// Time is the virtual wall-clock time in seconds.
	Time float64
	// Loss is the test loss; Acc the test accuracy in [0,1] (token
	// accuracy for the language model).
	Loss, Acc float64
}

// RoundStat records per-round engine internals for the overhead and
// behaviour analyses (Figs. 5 and 11).
type RoundStat struct {
	Round int
	// Time is the round's virtual duration; CompTime/CommTime are the
	// participating workers' means.
	Time, CompTime, CommTime float64
	// Ratios are the pruning ratios assigned this round (index = worker).
	Ratios []float64
	// DownBytes/UpBytes are totals over participating workers.
	DownBytes, UpBytes int64
	// DecisionSeconds and PruneSeconds are *real* wall-clock seconds spent
	// in pruning-ratio decisions and in model pruning (Fig. 11 measures
	// these for real rather than in virtual time).
	DecisionSeconds, PruneSeconds float64
	// Participants counts workers whose results were aggregated.
	Participants int
	// Dropped counts workers whose assignments were lost this round —
	// cut off by the fault-tolerance deadline, crashed mid-round, or (on
	// the wire runtime) missing at the quorum close.
	Dropped int
	// Suspect counts workers skipped up front: devices still recovering
	// from an injected crash, or wire workers marked suspect after a
	// missed round and not yet restored.
	Suspect int
}

// Result summarises one run.
type Result struct {
	Config Config
	// Points are the evaluation trajectory, in time order.
	Points []Point
	// Stats are the per-round engine internals.
	Stats []RoundStat
	// Rounds is the number of completed rounds; Time the total virtual
	// seconds.
	Rounds int
	Time   float64
	// FinalAcc and FinalLoss are the last evaluation's metrics.
	FinalAcc, FinalLoss float64
	// TimeToTargetAcc is the virtual time at which TargetAccuracy was
	// first met (+Inf if never, or no target set). TimeToTargetLoss is the
	// analogue for TargetLoss.
	TimeToTargetAcc, TimeToTargetLoss float64
	// State is the run's resumable snapshot at the end of the run, a deep
	// copy. RunFrom continues a synchronous run from it as if the process
	// had never stopped; an asynchronous run's State is the model, ledger
	// and ratio policies as of its last closed round, without the
	// assignments still in flight, and cannot be resumed.
	State *State
	// Stream carries the constant-memory aggregates when
	// Config.StreamMetrics is set (Points and Stats then stay empty).
	Stream *StreamStats
	// Events counts the completions Alg. 2's scheduler processed over an
	// asynchronous run — the numerator of the benchmark's
	// simsched.events_per_round — and is 0 for lockstep runs, which close
	// their rounds without an event queue.
	Events int64
}

// BestAccWithin returns the best accuracy observed at or before the given
// virtual time (Table III reads the trajectory this way).
func (r *Result) BestAccWithin(budget float64) float64 {
	best := 0.0
	for _, p := range r.Points {
		if p.Time <= budget && p.Acc > best {
			best = p.Acc
		}
	}
	return best
}

// Perplexity returns exp of the final loss, the language-model metric.
func (r *Result) Perplexity() float64 { return math.Exp(r.FinalLoss) }
