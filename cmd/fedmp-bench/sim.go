package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"fedmp/internal/cluster"
	"fedmp/internal/core"
	"fedmp/internal/data"
	"fedmp/internal/simsched"
	"fedmp/internal/zoo"
)

// The -sim-json mode benchmarks the event-driven virtual-time scheduler at
// population scale and writes BENCH_sim.json: one sampled-cohort training
// run per population size (1e3 / 1e5 / 1e6 devices, identical cohort), with
// scheduler events/sec and the run's heap growth — which must stay flat
// across populations, because devices derive lazily from (seed, id) — plus
// raw scheduler push/pop and device-derivation micro-benchmarks, and the
// fixed costs a round pays per cohort member besides training (pruning
// dispatch, aggregation, network construction, device materialisation) at
// the shapes of the population workload: bench-tiny, cohort 200.

// simRow is one population-scale run.
type simRow struct {
	Population     int     `json:"population"`
	Cohort         int     `json:"cohort"`
	Rounds         int     `json:"rounds"`
	VirtualSeconds float64 `json:"virtual_seconds"`
	// Events counts scheduler events processed (worker completions, round
	// closes, eval ticks, churn transitions); EventsPerSec divides by the
	// run's wall time — training included, so it is an end-to-end figure.
	Events       int64   `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	// HeapGrowthBytes is live heap after the run minus before (post-GC
	// both sides). Population-independent by design.
	HeapGrowthBytes int64 `json:"heap_growth_bytes"`
	// MeanParticipants and BestAcc come from the streaming aggregates.
	MeanParticipants float64 `json:"mean_participants"`
	BestAcc          float64 `json:"best_acc"`
}

type simReport struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	// SchedulerPushPopNs is one steady-state push+pop pair on a 1024-event
	// heap; SchedulerOpsPerSec is its reciprocal — the scheduler's raw
	// throughput ceiling, as opposed to the end-to-end rows below.
	SchedulerPushPopNs float64 `json:"scheduler_push_pop_ns"`
	SchedulerOpsPerSec float64 `json:"scheduler_ops_per_sec"`
	// PopulationDeviceNs derives one device profile (cluster, mode,
	// distance, jitter RNG) from (seed, id) on a million-device population.
	PopulationDeviceNs float64  `json:"population_device_ns"`
	Rows               []simRow `json:"rows"`
	// RoundCosts are the per-round fixed costs (see roundCostBenches);
	// BenchmarkRoundCosts in this package's tests runs the same bodies.
	RoundCosts []simCost `json:"round_costs"`
}

// simCost is one fixed-cost micro-benchmark.
type simCost struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

const (
	costCohort = 200
	costRounds = 100
)

// simBenchFamily is the family of the scale runs and the round-cost rows.
func simBenchFamily() *core.ImageFamily {
	ds := data.Generate("bench-tiny", data.Config{
		Classes: 6, C: 1, H: 8, W: 8,
		TrainSize: 600, TestSize: 180, Noise: 0.6, MaxShift: 1, Seed: 42,
	})
	return &core.ImageFamily{Spec: simBenchSpec(), DS: ds}
}

// benchCohortRound runs FedMP rounds over a 200-worker cohort with training
// left out — every worker returns its assignment untouched — and times
// either the Assign half (ratio decisions, one scoring of the global model,
// 200 plans and sub-models) or the Aggregate half (the fused R2SP sum and
// the reward updates). E-UCB's cost grows with an agent's history, so the
// strategy starts over every costRounds rounds, the length of a population
// run.
func benchCohortRound(b *testing.B, timeAssign bool) {
	fam := simBenchFamily()
	cfg, err := core.Normalize(core.Config{Strategy: core.StrategyFedMP, Workers: costCohort, Rounds: costRounds, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var strategy core.Strategy
	workers := make([]int, costCohort)
	for i := range workers {
		workers[i] = i
	}
	info := &core.RoundInfo{
		Global:    fam.InitWeights(1),
		PrevLoss:  1,
		PrevTimes: make([]float64, costCohort), PrevCommTimes: make([]float64, costCohort),
	}
	outs := make([]core.Output, costCohort)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if info.Round = i%costRounds + 1; info.Round == 1 {
			if strategy, err = core.NewStrategy(fam, &cfg); err != nil {
				b.Fatal(err)
			}
		}
		if timeAssign {
			b.StartTimer()
		}
		assignments, err := strategy.Assign(info, workers)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for j, a := range assignments {
			outs[j] = core.Output{Assignment: a, NewWeights: a.Weights, TrainLoss: 0.9, Total: 1 + 0.01*float64(j)}
		}
		if !timeAssign {
			b.StartTimer()
		}
		if info.Global, err = strategy.Aggregate(info, outs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBuildNet times obtaining a trainable network for the model's
// ratio-0.4 sub-model: built from scratch (Family.BuildNet), or taken from an
// executor's warm cache (core.NetCache) as a steady-state assignment does.
func benchBuildNet(newFamily func() (*core.ImageFamily, error), cached bool) func(b *testing.B) {
	return func(b *testing.B) {
		fam, err := newFamily()
		if err != nil {
			b.Fatal(err)
		}
		_, desc, _, err := fam.MakePlan(fam.InitWeights(1), 0.4, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		cache := core.NewNetCache(fam, 0.05, 0.9, 0)
		if _, _, err := cache.Get(desc, 1); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cached {
				_, _, err = cache.Get(desc, 1)
			} else {
				_, err = fam.BuildNet(desc, 1)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func tinyFamily() (*core.ImageFamily, error) { return simBenchFamily(), nil }
func cnnFamily() (*core.ImageFamily, error)  { return core.NewImageFamily(zoo.ModelCNN) }

// benchDeviceMaterialise200 derives a cohort's worth of never-seen devices,
// the work the engine's device pre-pass spreads over the cores.
func benchDeviceMaterialise200(b *testing.B) {
	pop, err := cluster.Population{Size: 1_000_000}.Normalized(costCohort, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < costCohort; j++ {
			pop.Device((i*costCohort + j) * 7919 % pop.Size)
		}
	}
}

// roundCostBenches are the round_costs rows, in report order;
// BenchmarkRoundCosts runs the same table under `go test -bench`.
var roundCostBenches = []struct {
	name string
	run  func(b *testing.B)
}{
	{"AssignCohort200", func(b *testing.B) { benchCohortRound(b, true) }},
	{"AggregateCohort200", func(b *testing.B) { benchCohortRound(b, false) }},
	{"BuildNetTiny", benchBuildNet(tinyFamily, false)},
	{"BuildNetTinyCached", benchBuildNet(tinyFamily, true)},
	{"BuildNetCNN", benchBuildNet(cnnFamily, false)},
	{"BuildNetCNNCached", benchBuildNet(cnnFamily, true)},
	{"DeviceMaterialise200", benchDeviceMaterialise200},
}

// simBenchSpec is the deliberately tiny model the scale runs train: the
// benchmark measures the scheduler and population machinery, so local SGD
// is kept cheap enough that three runs finish in about a minute.
func simBenchSpec() *zoo.Spec {
	return &zoo.Spec{
		Name: "bench-tiny", InC: 1, InH: 8, InW: 8, Classes: 6,
		Layers: []zoo.LayerSpec{
			{Kind: zoo.KindConv, Name: "conv1", Out: 6, K: 3, Stride: 1, Pad: 1},
			{Kind: zoo.KindReLU, Name: "relu1"},
			{Kind: zoo.KindMaxPool, Name: "pool1", Window: 2},
			{Kind: zoo.KindFlatten, Name: "flat"},
			{Kind: zoo.KindDense, Name: "fc1", Out: 24},
			{Kind: zoo.KindReLU, Name: "relu2"},
			{Kind: zoo.KindDense, Name: "out", Out: 6},
		},
	}
}

// simScaleRun trains a sampled cohort out of a population of the given size
// and reports the row. The config matches across populations — only Size
// changes — so heap growth and events/sec compare like for like.
func simScaleRun(fam core.Family, population, cohort, rounds int) (simRow, error) {
	cfg := core.Config{
		Strategy:      core.StrategyFedMP,
		Workers:       cohort,
		Rounds:        rounds,
		LocalIters:    2,
		BatchSize:     6,
		EvalEvery:     10,
		EvalLimit:     60,
		Seed:          1,
		StreamMetrics: true,
		Population: &cluster.Population{
			Size:    population,
			Diurnal: cluster.Diurnal{Period: 6, OnFraction: 0.8},
			Outage:  cluster.Outage{Regions: 4, Prob: 0.15, Period: 3, Duration: 1.5},
		},
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := core.Run(fam, cfg)
	wall := time.Since(start).Seconds()
	if err != nil {
		return simRow{}, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	row := simRow{
		Population:       population,
		Cohort:           cohort,
		Rounds:           res.Rounds,
		VirtualSeconds:   res.Time,
		Events:           res.Events,
		WallSeconds:      wall,
		EventsPerSec:     float64(res.Events) / wall,
		HeapGrowthBytes:  int64(after.HeapAlloc) - int64(before.HeapAlloc),
		MeanParticipants: res.Stream.Participants.Mean,
		BestAcc:          res.Stream.BestAcc,
	}
	return row, nil
}

// writeSimBench runs the scheduler benchmarks and writes the JSON report to
// path ("-" for stdout).
func writeSimBench(path string) error {
	rep := simReport{
		GeneratedBy: "fedmp-bench -sim-json",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}

	fmt.Fprintf(os.Stderr, "benchmarking scheduler push/pop ... ")
	pushPop := testing.Benchmark(func(b *testing.B) {
		s := simsched.New(1024)
		for i := 0; i < 1024; i++ {
			s.Push(float64(i%97), simsched.KindWorkerDone, int64(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev, _ := s.Pop()
			s.Push(ev.Time+float64(i%13), simsched.KindWorkerDone, ev.ID)
		}
	})
	rep.SchedulerPushPopNs = float64(pushPop.NsPerOp())
	if rep.SchedulerPushPopNs > 0 {
		rep.SchedulerOpsPerSec = 1e9 / rep.SchedulerPushPopNs
	}
	fmt.Fprintf(os.Stderr, "%.0f ns/op\n", rep.SchedulerPushPopNs)

	fmt.Fprintf(os.Stderr, "benchmarking device derivation ... ")
	pop, err := cluster.Population{Size: 1_000_000}.Normalized(30, 1)
	if err != nil {
		return err
	}
	device := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pop.Device(i % pop.Size)
		}
	})
	rep.PopulationDeviceNs = float64(device.NsPerOp())
	fmt.Fprintf(os.Stderr, "%.0f ns/op\n", rep.PopulationDeviceNs)

	for _, c := range roundCostBenches {
		fmt.Fprintf(os.Stderr, "benchmarking %s ... ", c.name)
		r := testing.Benchmark(c.run)
		rep.RoundCosts = append(rep.RoundCosts, simCost{
			Name: c.name, NsPerOp: float64(r.NsPerOp()), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
		})
		fmt.Fprintf(os.Stderr, "%.0f ns/op, %d allocs/op\n", float64(r.NsPerOp()), r.AllocsPerOp())
	}

	fam := simBenchFamily()
	for _, population := range []int{1_000, 100_000, 1_000_000} {
		fmt.Fprintf(os.Stderr, "running population %d ... ", population)
		row, err := simScaleRun(fam, population, 30, 50)
		if err != nil {
			return err
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Fprintf(os.Stderr, "%d events in %.1fs, heap %+d KiB\n",
			row.Events, row.WallSeconds, row.HeapGrowthBytes/1024)
	}

	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
