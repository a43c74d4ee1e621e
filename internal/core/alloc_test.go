package core

import (
	"testing"

	"fedmp/internal/cluster"
	"fedmp/internal/nn"
)

// fixedSource hands out one batch forever, so a measured runWorker call
// allocates nothing on the data side.
type fixedSource struct{ b *nn.Batch }

func (s fixedSource) Next() *nn.Batch { return s.b }

// TestRunWorkerSteadyStateAllocs pins the reuse path: once an executor's
// cache holds the assignment's shape, runWorker allocates only what it
// returns and prices — the trained weights and their delta (three
// allocations per tensor each: header, shape, data; plus the two lists), with
// a little slack for the values around the two frame envelopes. A layer,
// workspace, optimiser or RNG allocation on this path shows up as hundreds.
func TestRunWorkerSteadyStateAllocs(t *testing.T) {
	for _, momentum := range []float32{0.9, 0} {
		fam := tinyFamily()
		r, err := newRunner(fam, quickCfg(StrategyFedMP, 3))
		if err != nil {
			t.Fatal(err)
		}
		r.cfg.Momentum = momentum // a zero Config.Momentum means the default
		asg, err := r.strategy.Assign(r.info(1), []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range r.sources {
			r.sources[i] = fixedSource{r.sources[i].Next()}
		}
		cache := NewNetCache(fam, r.cfg.LR, r.cfg.Momentum, r.cfg.WeightDecay)
		run := func() {
			for _, a := range asg {
				if _, err := r.runWorker(a, 1, cache); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // builds both shapes, grows every workspace
		tensors := len(asg[0].Weights)
		budget := float64(len(asg) * (2*(3*tensors+1) + 4))
		if got := testing.AllocsPerRun(20, run); got > budget {
			t.Errorf("momentum %v: warm runWorker allocates %v times per %d assignments, budget %v", r.cfg.Momentum, got, len(asg), budget)
		} else {
			t.Logf("momentum %v: %v allocations per %d assignments (budget %v)", r.cfg.Momentum, got, len(asg), budget)
		}
	}
}

// TestBindCohortAllocatesNothing pins the parked population's steady state:
// once the cohort's slots exist, binding a device allocates nothing — whether
// it resumes a parked state (a population the warm-up rounds have sampled in
// full; parking back into a map that no longer grows is free too) or is seen
// for the first time (10⁶ devices; the parked state's map slot is the only
// thing a first-seen device ever costs, and releaseRound pays it).
func TestBindCohortAllocatesNothing(t *testing.T) {
	for _, size := range []int{40, 1_000_000} {
		cfg := quickCfg(StrategyFedMP, 1)
		cfg.Workers = 30
		cfg.Population = &cluster.Population{Size: size}
		r, err := newRunner(tinyFamily(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		round := func() {
			r.bindCohort()
			if size == 40 {
				r.releaseRound()
			}
		}
		for i := 0; i < 20; i++ {
			r.bindCohort()
			r.releaseRound()
		}
		if size == 40 && len(r.devCache) != size {
			t.Fatalf("warm-up parked %d of %d devices", len(r.devCache), size)
		}
		if got := testing.AllocsPerRun(50, round); got != 0 {
			t.Errorf("population %d: a cohort binding allocates %v times, want 0", size, got)
		}
	}
}
