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
	"sync"
)

// Policy selects pruning ratios online. Select returns the ratio to use this
// round; Observe reports the realised reward for the most recent Select and
// advances the policy's clock; a NaN or infinite reward counts as 0. Calls
// must strictly alternate.
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
	if !(c.Lambda > 0 && c.Lambda < 1) { // NaN too: it keys the shared λ^k tables
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

// pull is one historical arm pull. region is the index of the leaf stats
// counts it in — the first leaf containing ratio, -1 for none — set when the
// pull is observed and kept current when that leaf splits.
type pull struct {
	round  int
	ratio  float64
	reward float64
	region int
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

	round    int
	pending  pull // the un-observed Select of the current round, if selected
	selected bool

	maxAge int       // the age past which trimHistory drops a pull
	pow    []float64 // pow[k] = λ^k for every age up to maxAge+1, shared per λ
	acc    []float64 // stats' scratch
}

// powTables holds one discount table per λ (float64 → []float64), shared
// by every agent with that λ: the tables are only read once built.
var powTables sync.Map

// NewAgent constructs an E-UCB agent with the initial partition {[0, max)}.
func NewAgent(cfg Config, rng *rand.Rand) (*Agent, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxAge := int(math.Log(1e-9)/math.Log(cfg.Lambda)) + 1
	pow, ok := powTables.Load(cfg.Lambda)
	if !ok {
		table := make([]float64, maxAge+2)
		for k := range table {
			table[k] = math.Pow(cfg.Lambda, float64(k))
		}
		pow, _ = powTables.LoadOrStore(cfg.Lambda, table)
	}
	// Room for leaves of width θ, which a few hundred rounds seldom outgrow;
	// stats' scratch holds two values a leaf.
	leaves := int(cfg.MaxRatio/cfg.Theta) + 1
	regions := append(make([]Region, 0, leaves), Region{Lo: 0, Hi: cfg.MaxRatio})
	return &Agent{cfg: cfg, rng: rng, regions: regions, maxAge: maxAge, pow: pow.([]float64), acc: make([]float64, 0, 2*leaves)}, nil
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
	if age >= len(a.pow) {
		// Only a restored history is this old.
		return math.Pow(a.cfg.Lambda, float64(age))
	}
	return a.pow[age]
}

// stats computes every region's discounted pull count N_k(λ, P) and
// discounted reward sum from the pull history (Eq. 9) in one pass: each pull
// lands in the region that contains it (its cached region), in history order.
// The slices are the agent's scratch, valid until the next call.
func (a *Agent) stats() (ns, sums []float64) {
	k := len(a.regions)
	a.acc = slices.Grow(a.acc[:0], 2*k)[:2*k]
	clear(a.acc)
	ns, sums = a.acc[:k], a.acc[k:]
	for _, p := range a.history {
		if p.region >= 0 {
			w := a.discount(a.round - p.round)
			ns[p.region] += w
			sums[p.region] += w * p.reward
		}
	}
	return ns, sums
}

// Select implements Policy: it chooses the leaf with the largest upper
// confidence bound U_k = R̄_k + c_k (Eq. 11) — unvisited leaves first — and
// samples a ratio uniformly within it.
func (a *Agent) Select() float64 {
	if a.selected {
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
	a.pending, a.selected = pull{round: a.round, ratio: ratio}, true
	return ratio
}

// finite returns reward, or 0 — what a dropped worker earns — when it is NaN
// or infinite: one such reward in a region's statistics would make every
// later UCB index of the region NaN, so no policy stores one.
func finite(reward float64) float64 {
	if math.IsNaN(reward - reward) {
		return 0
	}
	return reward
}

// Observe implements Policy: it records the reward for the pending pull,
// splits the pulled leaf at the pulled arm if its diameter still exceeds θ
// (Alg. 1 lines 7–10), and advances the round.
func (a *Agent) Observe(reward float64) {
	if !a.selected {
		panic("bandit: Observe without a pending Select")
	}
	p := a.pending
	p.reward = finite(reward)
	p.region = a.leafOf(p.ratio)
	a.selected = false
	a.history = append(a.history, p)
	a.trimHistory()

	idx := p.region
	if idx < 0 {
		idx = a.rightmostLeaf()
	}
	r := a.regions[idx]
	if r.Diameter() > a.cfg.Theta {
		const minSplit = 1e-9
		if p.ratio-r.Lo > minSplit && r.Hi-p.ratio > minSplit {
			a.regions[idx] = Region{Lo: r.Lo, Hi: p.ratio}
			a.regions = append(a.regions, Region{Lo: p.ratio, Hi: r.Hi})
			// Only the split leaf's pulls can change leaf: it shrank, and the
			// new leaf comes after every other.
			for i := range a.history {
				if h := &a.history[i]; h.region == idx {
					h.region = a.leafOf(h.ratio)
				}
			}
		}
	}
	a.round++
}

// trimHistory discards pulls whose discount weight has decayed below any
// measurable influence (λ^age < 1e-9), bounding the per-round cost of the
// Eq. 9 statistics at O(effective-memory) instead of growing with the run
// length.
func (a *Agent) trimHistory() {
	cut := 0
	for cut < len(a.history) && a.round-a.history[cut].round > a.maxAge {
		cut++
	}
	if cut > 0 {
		a.history = a.history[:copy(a.history, a.history[cut:])]
	}
}

// leafOf returns the index of the first leaf containing ratio, or -1.
func (a *Agent) leafOf(ratio float64) int {
	for i, r := range a.regions {
		if ratio >= r.Lo && ratio < r.Hi {
			return i
		}
	}
	return -1
}

// rightmostLeaf returns the index of the leaf with the largest Hi: where a
// pull no leaf contains is split, which only float rounding of a ratio up to
// MaxRatio can cause.
func (a *Agent) rightmostLeaf() int {
	best, hi := 0, math.Inf(-1)
	for i, r := range a.regions {
		if r.Hi > hi {
			best, hi = i, r.Hi
		}
	}
	return best
}
