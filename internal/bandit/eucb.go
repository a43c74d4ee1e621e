// Package bandit implements the Extended Upper Confidence Bound (E-UCB)
// online learning algorithm of FedMP §IV-C, which adaptively selects pruning
// ratios for heterogeneous workers without prior knowledge of their
// capabilities, plus two simpler policies (discrete UCB, ε-greedy) used for
// ablation experiments.
//
// E-UCB treats the continuous arm space [0, 1) of pruning ratios as a
// growing partition of intervals — leaves of an incremental regression tree.
// Each round it computes a discounted upper confidence bound per leaf
// (Eqs. 9–11 of the paper), pulls an arm uniformly inside the best leaf, and
// splits that leaf at the pulled arm while its diameter exceeds the
// exploration granularity θ.
package bandit

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Policy selects pruning ratios online. Select returns the ratio to use this
// round; Observe reports the realised reward for the most recent Select and
// advances the policy's clock. Calls must strictly alternate.
type Policy interface {
	Select() float64
	Observe(reward float64)
}

// Config parameterises an E-UCB agent.
type Config struct {
	// Lambda is the discount factor λ ∈ (0,1) of Eq. 9 weighting recent
	// rewards more heavily. The paper uses 0.95.
	Lambda float64
	// Theta is the exploration granularity θ: leaves are not split below
	// this diameter. The paper recommends [0.01, 0.05].
	Theta float64
	// MaxRatio caps the arm space at [0, MaxRatio). The paper's arm space
	// is [0,1); a cap slightly below 1 avoids degenerate one-filter
	// sub-models. Zero means 1.
	MaxRatio float64
	// ExplorationC scales the padding function c_k (Eq. 10). The paper's
	// form corresponds to 1; because Eq. 8 rewards are unnormalised, a
	// caller whose rewards are small relative to 1 can lower this to keep
	// exploitation competitive. Zero means 1.
	ExplorationC float64
}

// DefaultConfig returns the paper's settings (λ = 0.95, θ = 0.02).
func DefaultConfig() Config { return Config{Lambda: 0.95, Theta: 0.02, MaxRatio: 0.9} }

func (c *Config) validate() error {
	if c.Lambda <= 0 || c.Lambda >= 1 {
		return fmt.Errorf("bandit: lambda %v outside (0,1)", c.Lambda)
	}
	if c.Theta <= 0 || c.Theta >= 1 {
		return fmt.Errorf("bandit: theta %v outside (0,1)", c.Theta)
	}
	if c.MaxRatio == 0 {
		c.MaxRatio = 1
	}
	if c.MaxRatio <= 0 || c.MaxRatio > 1 {
		return fmt.Errorf("bandit: max ratio %v outside (0,1]", c.MaxRatio)
	}
	if c.ExplorationC == 0 {
		c.ExplorationC = 1
	}
	if c.ExplorationC < 0 {
		return fmt.Errorf("bandit: exploration coefficient %v negative", c.ExplorationC)
	}
	return nil
}

// pull is one historical arm pull.
type pull struct {
	round  int
	ratio  float64
	reward float64
}

// Region is one leaf of the partition, exported for inspection.
type Region struct {
	Lo, Hi float64
}

// Diameter returns the leaf width.
func (r Region) Diameter() float64 { return r.Hi - r.Lo }

// Agent is one E-UCB agent. The parameter server creates one per worker.
// Agents are not safe for concurrent use.
type Agent struct {
	cfg     Config
	rng     *rand.Rand
	regions []Region
	history []pull

	round   int
	pending *pull // the un-observed Select of the current round

	maxAge int       // the age past which trimHistory drops a pull
	pow    []float64 // pow[k] = λ^k, filled as ages are first met
	acc    []float64 // stats' scratch
}

// NewAgent constructs an E-UCB agent with the initial partition {[0, max)}.
func NewAgent(cfg Config, rng *rand.Rand) (*Agent, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Agent{
		cfg:     cfg,
		rng:     rng,
		regions: []Region{{Lo: 0, Hi: cfg.MaxRatio}},
		maxAge:  int(math.Log(1e-9)/math.Log(cfg.Lambda)) + 1,
	}, nil
}

// MustAgent is NewAgent for known-good configs; it panics on error.
func MustAgent(cfg Config, rng *rand.Rand) *Agent {
	a, err := NewAgent(cfg, rng)
	if err != nil {
		panic(err)
	}
	return a
}

// Regions returns a copy of the current partition, sorted by Lo.
func (a *Agent) Regions() []Region {
	out := append([]Region(nil), a.regions...)
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	return out
}

// Round returns how many Observe calls have completed.
func (a *Agent) Round() int { return a.round }

// discount returns λ^age, the Eq. 9 weight of a pull that many rounds old.
func (a *Agent) discount(age int) float64 {
	if age > a.maxAge+1 {
		// Only a restored history is this old: no checkpoint grows the table.
		return math.Pow(a.cfg.Lambda, float64(age))
	}
	for k := len(a.pow); k <= age; k++ {
		a.pow = append(a.pow, math.Pow(a.cfg.Lambda, float64(k)))
	}
	return a.pow[age]
}

// stats computes every region's discounted pull count N_k(λ, P) and
// discounted reward sum from the pull history (Eq. 9) in one pass: each pull
// lands in the region that contains it, in history order. The slices are the
// agent's scratch, valid until the next call.
func (a *Agent) stats() (ns, sums []float64) {
	k := len(a.regions)
	a.acc = slices.Grow(a.acc[:0], 2*k)[:2*k]
	clear(a.acc)
	ns, sums = a.acc[:k], a.acc[k:]
	for _, p := range a.history {
		for i, r := range a.regions {
			if p.ratio >= r.Lo && p.ratio < r.Hi {
				w := a.discount(a.round - p.round)
				ns[i] += w
				sums[i] += w * p.reward
				break
			}
		}
	}
	return ns, sums
}

// Select implements Policy: it chooses the leaf with the largest upper
// confidence bound U_k = R̄_k + c_k (Eq. 11) — unvisited leaves first — and
// samples a ratio uniformly within it.
func (a *Agent) Select() float64 {
	if a.pending != nil {
		panic("bandit: Select called twice without Observe")
	}
	// n_k(λ) = Σ_j N_k(λ, P_j).
	var total float64
	ns, sums := a.stats()
	for _, n := range ns {
		total += n
	}
	best, bestU := -1, math.Inf(-1)
	for i := range a.regions {
		var u float64
		if ns[i] == 0 {
			u = math.Inf(1) // force exploration of untouched leaves
		} else {
			u = sums[i]/ns[i] + a.cfg.ExplorationC*math.Sqrt(2*math.Log(math.Max(total, math.E))/ns[i])
		}
		if u > bestU {
			best, bestU = i, u
		}
	}
	r := a.regions[best]
	ratio := r.Lo + a.rng.Float64()*(r.Hi-r.Lo)
	a.pending = &pull{round: a.round, ratio: ratio}
	return ratio
}

// Observe implements Policy: it records the reward for the pending pull,
// splits the pulled leaf at the pulled arm if its diameter still exceeds θ
// (Alg. 1 lines 7–10), and advances the round.
func (a *Agent) Observe(reward float64) {
	if a.pending == nil {
		panic("bandit: Observe without a pending Select")
	}
	p := *a.pending
	p.reward = reward
	a.pending = nil
	a.history = append(a.history, p)
	a.trimHistory()

	idx := a.regionOf(p.ratio)
	r := a.regions[idx]
	if r.Diameter() > a.cfg.Theta {
		const minSplit = 1e-9
		if p.ratio-r.Lo > minSplit && r.Hi-p.ratio > minSplit {
			a.regions[idx] = Region{Lo: r.Lo, Hi: p.ratio}
			a.regions = append(a.regions, Region{Lo: p.ratio, Hi: r.Hi})
		}
	}
	a.round++
}

// trimHistory discards pulls whose discount weight has decayed below any
// measurable influence (λ^age < 1e-9), bounding the per-round cost of the
// Eq. 9 statistics at O(regions · effective-memory) instead of growing with
// the run length.
func (a *Agent) trimHistory() {
	cut := 0
	for cut < len(a.history) && a.round-a.history[cut].round > a.maxAge {
		cut++
	}
	if cut > 0 {
		a.history = a.history[:copy(a.history, a.history[cut:])]
	}
}

// regionOf returns the index of the leaf containing ratio.
func (a *Agent) regionOf(ratio float64) int {
	for i, r := range a.regions {
		if ratio >= r.Lo && ratio < r.Hi {
			return i
		}
	}
	// ratio == MaxRatio can occur only through float rounding; clamp to the
	// rightmost leaf.
	best, hi := 0, math.Inf(-1)
	for i, r := range a.regions {
		if r.Hi > hi {
			best, hi = i, r.Hi
		}
	}
	return best
}
