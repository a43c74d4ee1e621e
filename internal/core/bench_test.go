package core

import (
	"runtime"
	"testing"

	"fedmp/internal/cluster"
	"fedmp/internal/data"
	"fedmp/internal/transport/codec"
	"fedmp/internal/zoo"
)

// warmPopRound builds a run in sim-pop1m's shape — a 10⁶-device population
// with diurnal availability and regional outages, the bench-tiny model, one
// local step at batch 2, an evaluation every 10 rounds, the default Wall
// clock — at the given strategy and cohort, runs warm rounds of it through
// Driver.round, and returns a function that runs the next. The test-only
// poisonClosed hook, which allocates, is off until tb ends.
func warmPopRound(tb testing.TB, strategy StrategyID, cohort, warm int) func() {
	tb.Helper()
	poisonClosed = false
	tb.Cleanup(func() { poisonClosed = true })
	ds := data.Generate("bench-tiny", data.Config{Classes: 6, C: 1, H: 8, W: 8, TrainSize: 600, TestSize: 180, Noise: 0.6, MaxShift: 1, Seed: 42})
	cfg := Config{
		Strategy: strategy, FixedRatio: 0.5, Workers: cohort, LocalIters: 1, BatchSize: 2,
		EvalEvery: 10, EvalLimit: 60, StreamMetrics: true, Seed: 1, Rounds: 1000,
		Population: &cluster.Population{
			Size:    1_000_000,
			Diurnal: cluster.Diurnal{Period: 6, OnFraction: 0.8},
			Outage:  cluster.Outage{Regions: 4, Prob: 0.15, Period: 3, Duration: 1.5},
		},
	}
	r, err := newRunner(&ImageFamily{Spec: benchTinySpec(), DS: ds}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := r.evaluate(0, 0); err != nil {
		tb.Fatal(err)
	}
	round, snap := 0, r.borrow
	next := func() {
		round++
		if _, err := r.round(r, round, snap); err != nil {
			tb.Fatal(err)
		}
	}
	for range warm {
		next()
	}
	return next
}

// BenchmarkWarmRound is one warm lockstep round of sim-pop1m's shape (FedMP,
// cohort 200) after 30 rounds: its allocs/op is what a round still allocates
// once every slot, generation and table has been sized.
func BenchmarkWarmRound(b *testing.B) {
	next := warmPopRound(b, StrategyFedMP, 200, 30)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		next()
	}
}

// BenchmarkWorkerStep is one sim-cnn30-shaped assignment — the zoo CNN, four
// local steps at batch 8 — through WorkerStep, cycling three sub-model
// shapes: "fresh" builds a network, an optimiser and an upload for every
// assignment, as an executor once did whenever the shape was not one it had
// cached; "reshaped" re-dimensions the executor's one network in place and
// builds each upload in its worker slot's buffers, as the simulator does.
// B/op is the fresh network's and upload's first-touch allocations, and 0
// for reshaped.
func BenchmarkWorkerStep(b *testing.B) {
	fam, err := NewImageFamily(zoo.ModelCNN)
	if err != nil {
		b.Fatal(err)
	}
	global := fam.InitWeights(1)
	var asg []*codec.Assign
	for _, ratio := range []float64{0.6, 0.2, 0.4} {
		_, desc, ws, err := fam.MakePlan(global, ratio, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		asg = append(asg, &codec.Assign{Round: 1, Desc: desc, Weights: ws, Iters: 4})
	}
	srcs, err := fam.Sources(1, NonIID{}, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	src := fixedSource{srcs[0].Next()}
	for _, mode := range []string{"fresh", "reshaped"} {
		b.Run(mode, func(b *testing.B) {
			local := NewLocalNet(fam, 0.05, 0.9, DefaultWeightDecay)
			slots := make([]Upload, len(asg))
			step := func(i int) {
				up := &slots[i%len(asg)]
				if mode == "fresh" {
					local, up = NewLocalNet(fam, 0.05, 0.9, DefaultWeightDecay), new(Upload)
				}
				if _, err := WorkerStep(local, src, asg[i%len(asg)], 1, up); err != nil {
					b.Fatal(err)
				}
			}
			for i := range asg {
				step(i) // the reshaped network grows to the largest shape
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
		})
	}
}

// BenchmarkServerPhases is the parameter server's own share of a
// sim-pop1m-shaped round — bench-tiny, a cohort of 200 E-UCB workers with 50
// rounds of history — on one executor ("serial") and on every core
// ("sharded"): "assign" is fedMP.Assign (the agents' Selects, the plans and
// the sub-model extraction into the workers' slots), "aggregate" is
// fedMP.Aggregate (the fused R2SP mean of the 200 trained sub-models and the
// Eq. 8 rewards). Each iteration runs both, since every Select needs its
// Observe; only the named phase is timed, but allocs/op counts both.
func BenchmarkServerPhases(b *testing.B) {
	fam := &ImageFamily{Spec: benchTinySpec()}
	cfg, err := Normalize(Config{Strategy: StrategyFedMP, Workers: 200, LocalIters: 1, BatchSize: 2, Rounds: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	global := fam.InitWeights(1)
	workers := make([]int, cfg.Workers)
	for i := range workers {
		workers[i] = i
	}
	for _, phase := range []string{"assign", "aggregate"} {
		for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
			mode := "sharded"
			if procs == 1 {
				mode = "serial"
			}
			b.Run(phase+"/"+mode, func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				s, err := NewStrategy(fam, &cfg)
				if err != nil {
					b.Fatal(err)
				}
				round := func(r int, timed string) {
					info := &RoundInfo{Round: r, Global: global, PrevLoss: 2,
						PrevTimes: make([]float64, cfg.Workers), PrevCommTimes: make([]float64, cfg.Workers)}
					if timed != "assign" {
						b.StopTimer()
					}
					asg, err := s.Assign(info, workers)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					outs := make([]Output, len(asg))
					for i, a := range asg {
						outs[i] = Output{Assignment: a, NewWeights: a.Weights, TrainLoss: 1 + float64(i%7)/10, Total: 1 + float64(i%5)}
					}
					if timed == "aggregate" {
						b.StartTimer()
					}
					if _, err := s.Aggregate(info, outs, nil); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				for r := 1; r <= 50; r++ {
					round(r, "")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round(51+i, phase)
				}
			})
		}
	}
}
