//go:build !race

package core

import (
	"runtime"
	"testing"

	"fedmp/internal/data"
	"fedmp/internal/zoo"
)

// The file is excluded under the race detector, whose sync.Pool drops pooled
// items at random, so a pooled workspace (the LSTM's weight packs) is
// reallocated now and then.

// raceEnabled reports whether the race detector instruments this test build.
const raceEnabled = false

// TestEvaluateSteadyStateAllocs: an evaluation re-dimensions the executor's
// network back to the full model from whatever sub-model it trained last,
// loads the global weights and evaluates the test batch a chunk at a time,
// tail chunk included, through the executor's own sub-batch header — on one
// executor without a single allocation (on more, shard's goroutines are the
// only ones).
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	lm := NewLMFamily(zoo.DefaultLMConfig(), data.CorpusConfig{Vocab: 80, Branch: 6, TrainSize: 6000, TestSize: 2000, Seed: 105})
	for _, fam := range []Family{tinyFamily(), lm} {
		cfg := quickCfg(StrategyFedMP, 1) // 120 examples: a chunk and a tail
		cfg.StreamMetrics = true
		d, err := NewDriver(fam, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, desc, _, err := fam.MakePlan(d.global, 0.5, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		local := d.localNets(1)[0]
		run := func() {
			if _, _, err := local.Get(desc, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := d.evaluate(1, 0); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(20, run); got != 0 {
			t.Errorf("%s: a warm evaluation allocates %v times, want 0", fam.Name(), got)
		}
	}
}

// TestAssignSteadyStateAllocsPerWorker pins fedMP.Assign's per-worker cost at
// zero allocations once every slot has held its sub-model: the plans, the
// sub-specs and the sub-models are rebuilt in the slots (fedMP.slots), the
// assignment list is re-sliced, the stopwatches (the default simclock.Wall)
// are values — so a round of 64 workers allocates exactly what a round of 16
// does (scoring the global model, once per round).
func TestAssignSteadyStateAllocsPerWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fam := &ImageFamily{Spec: benchTinySpec()}
	cfg, err := Normalize(Config{Strategy: StrategyFixed, FixedRatio: 0.4, Workers: 64, LocalIters: 1, BatchSize: 2, Rounds: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStrategy(fam, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	global := fam.InitWeights(1)
	workers := make([]int, cfg.Workers)
	for i := range workers {
		workers[i] = i
	}
	info := &RoundInfo{Round: cfg.WarmupRounds + 1, Global: global, PrevLoss: 2,
		PrevTimes: make([]float64, cfg.Workers), PrevCommTimes: make([]float64, cfg.Workers)}
	assign := func(ws []int) func() {
		return func() {
			if _, err := s.Assign(info, ws); err != nil {
				t.Fatal(err)
			}
		}
	}
	assign(workers)()
	all, quarter := testing.AllocsPerRun(20, assign(workers)), testing.AllocsPerRun(20, assign(workers[:16]))
	if all != quarter {
		t.Errorf("a warm Assign allocates %v times for 64 workers and %v for 16, want the same", all, quarter)
	} else {
		t.Logf("a warm Assign allocates %v times, for 64 workers as for 16", all)
	}
}

// TestWarmRoundAllocsIndependentOfCohort is the whole-round pin: a warm
// lockstep round of sim-pop1m's shape — a fixed ratio, so that no bandit
// history is still growing — allocates as many times at cohort 50 as at
// cohort 200. Slot sub-models and uploads, first-seen devices' park slots,
// the global generations and the stopwatches all cost nothing per worker.
// The rounds measured include two evaluations.
func TestWarmRoundAllocsIndependentOfCohort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var got [2]float64
	for i, cohort := range []int{50, 200} {
		got[i] = testing.AllocsPerRun(20, warmPopRound(t, StrategyFixed, cohort, 19))
	}
	if got[0] != got[1] {
		t.Errorf("a warm round allocates %v times at cohort 50 and %v at cohort 200, want the same", got[0], got[1])
	} else {
		t.Logf("a warm round allocates %v times at cohort 50 as at 200", got[0])
	}
}
