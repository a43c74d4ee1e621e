package bandit

import (
	"fmt"
	"math"
	"math/rand"
)

// DiscreteUCB is the classical UCB1 policy over a fixed grid of pruning
// ratios. It is the "traditional UCB policy with the discrete arm setting"
// the paper extends, kept as an ablation baseline for E-UCB.
type DiscreteUCB struct {
	arms    []float64
	counts  []int
	sums    []float64
	total   int
	pending int
}

// NewDiscreteUCB constructs a UCB1 policy over the given arms.
func NewDiscreteUCB(arms []float64) (*DiscreteUCB, error) {
	if len(arms) == 0 {
		return nil, fmt.Errorf("bandit: discrete UCB needs at least one arm")
	}
	for _, a := range arms {
		if a < 0 || a >= 1 {
			return nil, fmt.Errorf("bandit: arm %v outside [0,1)", a)
		}
	}
	return &DiscreteUCB{
		arms:    append([]float64(nil), arms...),
		counts:  make([]int, len(arms)),
		sums:    make([]float64, len(arms)),
		pending: -1,
	}, nil
}

// GridArms returns n evenly spaced arms over [0, max).
func GridArms(n int, max float64) []float64 {
	arms := make([]float64, n)
	for i := range arms {
		arms[i] = max * float64(i) / float64(n)
	}
	return arms
}

// Select implements Policy.
func (d *DiscreteUCB) Select() float64 {
	if d.pending >= 0 {
		panic("bandit: Select called twice without Observe")
	}
	best, bestU := -1, math.Inf(-1)
	for i := range d.arms {
		var u float64
		if d.counts[i] == 0 {
			u = math.Inf(1)
		} else {
			u = d.sums[i]/float64(d.counts[i]) +
				math.Sqrt(2*math.Log(math.Max(float64(d.total), math.E))/float64(d.counts[i]))
		}
		if u > bestU {
			best, bestU = i, u
		}
	}
	d.pending = best
	return d.arms[best]
}

// Observe implements Policy.
func (d *DiscreteUCB) Observe(reward float64) {
	if d.pending < 0 {
		panic("bandit: Observe without a pending Select")
	}
	d.counts[d.pending]++
	d.sums[d.pending] += finite(reward)
	d.total++
	d.pending = -1
}

// EpsilonGreedy explores a random ratio with probability Eps and otherwise
// exploits the best ratio seen so far (quantised to a grid so estimates
// accumulate). Ablation baseline for E-UCB.
type EpsilonGreedy struct {
	Eps     float64
	arms    []float64
	counts  []int
	sums    []float64
	rng     *rand.Rand
	pending int
}

// NewEpsilonGreedy constructs an ε-greedy policy over a grid of arms.
func NewEpsilonGreedy(eps float64, arms []float64, rng *rand.Rand) (*EpsilonGreedy, error) {
	if eps < 0 || eps > 1 {
		return nil, fmt.Errorf("bandit: epsilon %v outside [0,1]", eps)
	}
	if len(arms) == 0 {
		return nil, fmt.Errorf("bandit: epsilon-greedy needs at least one arm")
	}
	return &EpsilonGreedy{
		Eps:     eps,
		arms:    append([]float64(nil), arms...),
		counts:  make([]int, len(arms)),
		sums:    make([]float64, len(arms)),
		rng:     rng,
		pending: -1,
	}, nil
}

// Select implements Policy.
func (e *EpsilonGreedy) Select() float64 {
	if e.pending >= 0 {
		panic("bandit: Select called twice without Observe")
	}
	if e.rng.Float64() < e.Eps {
		e.pending = e.rng.Intn(len(e.arms))
		return e.arms[e.pending]
	}
	best, bestV := 0, math.Inf(-1)
	for i := range e.arms {
		v := math.Inf(1)
		if e.counts[i] > 0 {
			v = e.sums[i] / float64(e.counts[i])
		}
		if v > bestV {
			best, bestV = i, v
		}
	}
	e.pending = best
	return e.arms[best]
}

// Observe implements Policy.
func (e *EpsilonGreedy) Observe(reward float64) {
	if e.pending < 0 {
		panic("bandit: Observe without a pending Select")
	}
	e.counts[e.pending]++
	e.sums[e.pending] += finite(reward)
	e.pending = -1
}

// Fixed always returns the same ratio. Used by the UP-FL baseline (uniform
// schedule) and the fixed-ratio sweeps of Figs. 2 and 5.
type Fixed struct {
	Ratio float64
}

// Select implements Policy.
func (f Fixed) Select() float64 { return f.Ratio }

// Observe implements Policy (no-op).
func (f Fixed) Observe(float64) {}
