package core

import (
	"runtime"
	"testing"

	"fedmp/internal/cluster"
	"fedmp/internal/nn"
	"fedmp/internal/zoo"
)

// fixedSource hands out one batch forever, so a measured runWorker call
// allocates nothing on the data side.
type fixedSource struct{ b *nn.Batch }

func (s fixedSource) Next() *nn.Batch { return s.b }

// TestRunWorkerSteadyStateAllocs pins the re-dimensioning path on the zoo
// CNN: once the executor's network has been shaped for the largest of three
// sub-models and for the full model's evaluation, and each worker slot's
// upload buffers for its sub-model, cycling the three — with a full-model
// evaluation after each cycle, all on the one network the single executor
// keeps — allocates nothing: the delta, and so the output's NewWeights, is
// built in the slot's buffers, the result is the slot's, and the two priced
// frames stay on the stack. A layer, workspace, optimiser, RNG or upload
// allocation on this path shows up as one or more per tensor.
func TestRunWorkerSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fam, err := NewImageFamily(zoo.ModelCNN)
	if err != nil {
		t.Fatal(err)
	}
	for _, momentum := range []float32{0.9, 0} {
		cfg := quickCfg(StrategyFedMP, 3)
		cfg.StreamMetrics = true // evaluations append no Point
		r, err := newRunner(fam, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.cfg.Momentum = momentum // a zero Config.Momentum means the default
		var asg []Assignment
		for i, ratio := range []float64{0.6, 0.2, 0.4} {
			plan, desc, ws, err := fam.MakePlan(r.global, ratio, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			asg = append(asg, Assignment{Worker: i, Ratio: ratio, Plan: plan, Desc: desc, Weights: ws, Iters: r.cfg.LocalIters})
		}
		for i := range r.sources {
			r.sources[i] = fixedSource{r.sources[i].Next()}
		}
		local := r.localNets(1)[0]
		run := func() {
			for _, a := range asg {
				if _, err := r.runWorker(a, 1, local); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := r.evaluate(1, 0); err != nil {
				t.Fatal(err)
			}
		}
		run() // builds the network, grows every workspace and upload buffer
		budget := 0.0
		if raceEnabled {
			// The race detector's sync.Pool drops pooled workspaces at
			// random: hold the path to what a fresh upload once cost.
			budget = float64(len(asg) * (2*(3*len(asg[0].Weights)+1) + 4))
		}
		if got := testing.AllocsPerRun(20, run); got > budget {
			t.Errorf("momentum %v: warm runWorker allocates %v times per %d assignments and an evaluation, want %v", r.cfg.Momentum, got, len(asg), budget)
		}
		if len(r.nets) != 1 {
			t.Errorf("%d executor networks, want the one", len(r.nets))
		}
	}
}

// TestBindCohortAllocatesNothing pins the parked population's steady state:
// once the cohort's slots exist, binding a device and parking it again
// allocates nothing — whether it resumes a parked state (a population the
// warm-up rounds have sampled in full) or is seen for the first time (10⁶
// devices: the park table was sized for every device a 200-round run can
// sample). One measured call is 50 rounds, ~1 500 devices first seen, so
// that a table growing with them shows.
func TestBindCohortAllocatesNothing(t *testing.T) {
	for _, size := range []int{40, 1_000_000} {
		cfg := quickCfg(StrategyFedMP, 200)
		cfg.Workers = 30
		cfg.Population = &cluster.Population{Size: size}
		r, err := newRunner(tinyFamily(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		round := func() {
			for range 50 {
				r.bindCohort()
				r.releaseRound()
			}
		}
		for i := 0; i < 20; i++ {
			r.bindCohort()
			r.releaseRound()
		}
		if size == 40 && r.devCache.n != size {
			t.Fatalf("warm-up parked %d of %d devices", r.devCache.n, size)
		}
		if got := testing.AllocsPerRun(2, round); got != 0 {
			t.Errorf("population %d: 50 cohort bindings allocate %v times, want 0", size, got)
		}
	}
}
