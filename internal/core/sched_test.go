package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"fedmp/internal/cluster"
	"fedmp/internal/simclock"
	"fedmp/internal/tensor"
)

// resultFingerprint serialises everything about a Result except its Config,
// so two runs can be compared for byte-identical behaviour even when their
// configs differ in presentation (e.g. population vs. scenario).
func resultFingerprint(t *testing.T, res *Result) string {
	t.Helper()
	res2 := *res
	res2.Config = Config{}
	// DecisionSeconds/PruneSeconds measure *real* wall-clock work (Fig. 11)
	// and are legitimately nondeterministic; mask them.
	res2.Stats = append([]RoundStat(nil), res.Stats...)
	for i := range res2.Stats {
		res2.Stats[i].DecisionSeconds, res2.Stats[i].PruneSeconds = 0, 0
	}
	// JSON rejects the +Inf "target never reached" sentinels; fold them into
	// printable fields instead.
	tta, ttl := res2.TimeToTargetAcc, res2.TimeToTargetLoss
	res2.TimeToTargetAcc, res2.TimeToTargetLoss = 0, 0
	b, err := json.Marshal(&res2)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("tta=%v ttl=%v %s", tta, ttl, b)
}

// TestParallelCohortDeterminism pins the headline parallelism guarantee: a
// whole run — the sharded Assign, cohort training on per-executor network
// caches, the fused aggregate — at 8 goroutines is
// byte-identical to the serial run, with the stressful options on (fault
// injection, fault-tolerance deadline, failure-rate drops, quantized wire
// accounting), for the per-worker and the shared-plan pruning strategy, the
// asynchronous engine and a sampled population.
func TestParallelCohortDeterminism(t *testing.T) {
	fam := tinyFamily()
	faults := cluster.FaultConfig{
		Seed: 11, CrashProb: 0.1, StragglerProb: 0.2, StragglerFactor: 2,
		BlackoutProb: 0.1, DownRounds: 1,
	}
	stressed := quickCfg(StrategyFedMP, 4)
	stressed.FaultTolerance = true
	stressed.FailureRate = 0.2
	stressed.QuantizeWire = true
	stressed.Faults = faults
	upfl := quickCfg(StrategyUPFL, 4)
	upfl.Workers = 6
	async := quickCfg(StrategyFedMP, 8)
	async.Workers = 6
	async.Async = true
	async.Faults = faults
	sampled := quickCfg(StrategyFedMP, 4)
	sampled.Workers = 12
	sampled.Population = &cluster.Population{
		Size:    400,
		Diurnal: cluster.Diurnal{Period: 6, OnFraction: 0.8},
		Outage:  cluster.Outage{Regions: 4, Prob: 0.15, Period: 3, Duration: 1.5},
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fedmp", stressed}, {"upfl", upfl}, {"async", async}, {"population", sampled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(1)
			serial, errSerial := Run(fam, tc.cfg)
			runtime.GOMAXPROCS(8)
			parallel, errParallel := Run(fam, tc.cfg)
			runtime.GOMAXPROCS(prev)
			if errSerial != nil || errParallel != nil {
				t.Fatalf("serial err %v, parallel err %v", errSerial, errParallel)
			}
			if got, want := resultFingerprint(t, parallel), resultFingerprint(t, serial); got != want {
				t.Fatalf("parallel result diverges from serial:\nserial:   %.200s\nparallel: %.200s", want, got)
			}
		})
	}
}

// TestPopulationReproducesLegacyRun is the compatibility property: a
// population whose cohort spans all of it, with availability gates off, is
// the legacy fixed-worker engine — same devices, same RNG draws, same
// Result, byte for byte (modulo Config, which differs by construction).
func TestPopulationReproducesLegacyRun(t *testing.T) {
	fam := tinyFamily()
	legacyCfg := quickCfg(StrategyFedMP, 3)
	legacyCfg.Workers = 30
	popCfg := legacyCfg
	popCfg.Population = &cluster.Population{Size: 30}

	legacy, err := Run(fam, legacyCfg)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := Run(fam, popCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultFingerprint(t, pop), resultFingerprint(t, legacy); got != want {
		t.Fatalf("population run diverges from legacy run:\nlegacy:     %.200s\npopulation: %.200s", want, got)
	}
}

// TestStreamMetricsMatchStats runs the same config with and without
// streaming and checks the online aggregates against the full per-round
// record they replace.
func TestStreamMetricsMatchStats(t *testing.T) {
	fam := tinyFamily()
	cfg := quickCfg(StrategyFedMP, 4)
	full, err := Run(fam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StreamMetrics = true
	streamed, err := Run(fam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed.Points) != 0 || len(streamed.Stats) != 0 {
		t.Fatalf("streaming run kept %d points / %d stats", len(streamed.Points), len(streamed.Stats))
	}
	s := streamed.Stream
	if s == nil {
		t.Fatal("streaming run has nil Stream")
	}
	if int(s.Rounds) != len(full.Stats) {
		t.Fatalf("stream folded %d rounds, full run recorded %d", s.Rounds, len(full.Stats))
	}
	var sum float64
	for _, st := range full.Stats {
		sum += st.Time
	}
	mean := sum / float64(len(full.Stats))
	if d := s.RoundTime.Mean - mean; d > 1e-9 || d < -1e-9 {
		t.Errorf("stream round-time mean %v, full-run mean %v", s.RoundTime.Mean, mean)
	}
	if int(s.Evals) != len(full.Points) {
		t.Errorf("stream saw %d evals, full run %d points", s.Evals, len(full.Points))
	}
	last := full.Points[len(full.Points)-1]
	if s.LastAcc != last.Acc || s.LastLoss != last.Loss {
		t.Errorf("stream last eval (%v, %v), full run (%v, %v)", s.LastAcc, s.LastLoss, last.Acc, last.Loss)
	}
	if streamed.FinalAcc != full.FinalAcc {
		t.Errorf("streaming FinalAcc %v, full %v", streamed.FinalAcc, full.FinalAcc)
	}
	if streamed.Time != full.Time {
		t.Errorf("streaming total time %v, full %v", streamed.Time, full.Time)
	}
}

// TestPopulationChurnRun exercises the full scale path: a large-ish
// population, a small sampled cohort, both availability gates on, streaming
// metrics — the million-device configuration in miniature.
func TestPopulationChurnRun(t *testing.T) {
	fam := tinyFamily()
	cfg := quickCfg(StrategyFedMP, 5)
	cfg.Workers = 3
	cfg.StreamMetrics = true
	cfg.Population = &cluster.Population{
		Size:    500,
		Diurnal: cluster.Diurnal{Period: 40, OnFraction: 0.6},
		Outage:  cluster.Outage{Regions: 4, Prob: 0.3, Period: 25, Duration: 12},
	}
	res, err := Run(fam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 5 {
		t.Fatalf("ran %d rounds, want 5", res.Rounds)
	}
	if res.Events <= 0 {
		t.Errorf("processed %d scheduler events", res.Events)
	}
	if res.Stream == nil || res.Stream.Rounds != 5 {
		t.Fatalf("stream = %+v", res.Stream)
	}
	if res.Stream.Participants.Max > float64(cfg.Workers) {
		t.Errorf("a round had %v participants, cohort is %d", res.Stream.Participants.Max, cfg.Workers)
	}
	// Determinism: the same config replays the same run.
	res2, err := Run(fam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultFingerprint(t, res2), resultFingerprint(t, res); got != want {
		t.Fatal("population churn run is not deterministic")
	}
}

// liveHeapFamily records the live heap at each round's planning step, the
// one Family call the engine makes once a round from its own goroutine —
// while the runner and everything it caches are still reachable, which a
// measurement after Run returns would not see. live[k] is round k+1's.
type liveHeapFamily struct {
	*ImageFamily
	live []uint64
	// parked, when set, is sampled beside the heap.
	parked      func() int
	parkedCount []int
}

func (f *liveHeapFamily) PlanContext(weights []*tensor.Tensor) (PlanContext, error) {
	f.live = append(f.live, liveHeap())
	if f.parked != nil {
		f.parkedCount = append(f.parkedCount, f.parked())
	}
	return f.ImageFamily.PlanContext(weights)
}

func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// populationHeapCfg is the cohort-30 streaming run the two heap tests read.
func populationHeapCfg(rounds, size int) Config {
	cfg := quickCfg(StrategyFedMP, rounds)
	cfg.Workers = 30
	cfg.LocalIters, cfg.BatchSize = 1, 2 // training is not what is measured
	cfg.EvalEvery = 10
	cfg.StreamMetrics = true
	cfg.Clock = simclock.Fixed{}
	cfg.Population = &cluster.Population{Size: size}
	return cfg
}

// TestPopulationCostIndependentOfSize pins the scaling claim of population
// mode: at a fixed cohort the work and the memory of a run do not depend on
// how many devices exist. The same 50-round, cohort-30 run over 10³ and 10⁶
// devices processes the same number of scheduler events, and what it holds
// live in its last round grows by no more than the devices it sampled: the
// small population is sampled with repeats (~780 distinct of 1 500 draws),
// the large one almost without, hence the factor of two.
func TestPopulationCostIndependentOfSize(t *testing.T) {
	run := func(size int) (events int64, growth int64) {
		fam := &liveHeapFamily{ImageFamily: tinyFamily()}
		before := liveHeap()
		res, err := Run(fam, populationHeapCfg(50, size))
		if err != nil {
			t.Fatal(err)
		}
		return res.Events, int64(fam.live[len(fam.live)-1]) - int64(before)
	}
	smallEvents, smallGrowth := run(1_000)
	largeEvents, largeGrowth := run(1_000_000)
	if smallEvents != largeEvents || smallEvents == 0 {
		t.Errorf("%d events over 10³ devices, %d over 10⁶; want equal and non-zero", smallEvents, largeEvents)
	}
	if limit := 2*smallGrowth + 256<<10; largeGrowth > limit {
		t.Errorf("live heap grew %d KiB over 10⁶ devices, %d KiB over 10³; want at most %d KiB",
			largeGrowth>>10, smallGrowth>>10, limit>>10)
	}
	t.Logf("events %d; live-heap growth %d KiB (10³), %d KiB (10⁶)", smallEvents, smallGrowth>>10, largeGrowth>>10)
}

// TestPopulationHeapFlatInRounds is the other axis of the scaling claim: what
// a long run over 10⁶ devices keeps per device it has ever sampled is the
// parked jitter state and its map slot, not a generator. Between rounds 50
// and 200 the live heap may grow by 64 bytes per device first sampled in
// between (a 24-byte value, an 8-byte key, the map's load factor) and a
// constant.
func TestPopulationHeapFlatInRounds(t *testing.T) {
	fam := &liveHeapFamily{ImageFamily: tinyFamily()}
	cfg := populationHeapCfg(200, 1_000_000)
	// No bandit: an E-UCB agent's history grows until its 400-round horizon.
	cfg.Strategy, cfg.FixedRatio = StrategyFixed, 0.5
	r, err := newRunner(fam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fam.parked = func() int { return len(r.devCache) }
	if _, err := r.run(); err != nil {
		t.Fatal(err)
	}
	growth := int64(fam.live[199]) - int64(fam.live[49])
	devices := int64(fam.parkedCount[199] - fam.parkedCount[49])
	if limit := 64*devices + 64<<10; growth > limit || devices < 4000 {
		t.Errorf("live heap grew %d KiB from round 50 to round 200 over %d newly sampled devices; want at most %d KiB over 4000+ devices",
			growth>>10, devices, limit>>10)
	}
	t.Logf("live-heap growth %d KiB over %d newly sampled devices (%d B each)", growth>>10, devices, growth/max(devices, 1))
}

// TestParkedDeviceResumesInAnotherSlot drives the engine's parking: over a
// population barely larger than the cohort a device lands in a different slot
// most times it is sampled, and each time it must continue the jitter stream
// of an uninterrupted cluster.Device bit for bit.
func TestParkedDeviceResumesInAnotherSlot(t *testing.T) {
	cfg := quickCfg(StrategyFedMP, 1)
	cfg.Workers = 3
	cfg.Population = &cluster.Population{Size: 6}
	r, err := newRunner(tinyFamily(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	whole := make([]*cluster.Device, r.pop.Size)
	slotsOf := make([]map[int]bool, r.pop.Size)
	for id := range whole {
		whole[id], slotsOf[id] = r.pop.Device(id), map[int]bool{}
	}
	for round := 0; round < 40; round++ {
		for slot, id := range r.cohortIDs[:r.bindCohort()] {
			slotsOf[id][slot] = true
			got, want := r.deviceFor(slot), whole[id]
			if got.ID != id || got.Mode != want.Mode || got.Cluster != want.Cluster {
				t.Fatalf("round %d slot %d holds %v, want %v", round, slot, got, want)
			}
			if got.ComputeTime(1e6) != want.ComputeTime(1e6) || got.CommTime(1<<10) != want.CommTime(1<<10) {
				t.Fatalf("round %d: device %d in slot %d left its uninterrupted stream", round, id, slot)
			}
		}
		r.releaseRound()
	}
	moved := 0
	for _, slots := range slotsOf {
		if len(slots) > 1 {
			moved++
		}
	}
	if moved < 3 {
		t.Fatalf("only %d of %d devices were ever bound to more than one slot", moved, len(slotsOf))
	}
}

// TestPopulationConfigValidation pins the config seams: population excludes
// scenario and async, and the cohort must fit.
func TestPopulationConfigValidation(t *testing.T) {
	fam := tinyFamily()
	bad := []func(*Config){
		func(c *Config) { c.Population = &cluster.Population{Size: 2} }, // cohort 4 > size 2
		func(c *Config) { c.Population = &cluster.Population{Size: 10}; c.Async = true; c.AsyncM = 2 },
		func(c *Config) {
			c.Population = &cluster.Population{Size: 10}
			c.Scenario = cluster.Default(4, 7)
		},
	}
	for i, mutate := range bad {
		cfg := quickCfg(StrategyFedMP, 1)
		mutate(&cfg)
		if _, err := Run(fam, cfg); err == nil {
			t.Errorf("case %d: invalid population config accepted", i)
		}
	}
}

// topKOfSortRef is the pre-quickselect implementation (full sort per
// tensor), kept as the benchmark baseline and a cross-check oracle.
func topKOfSortRef(deltas []*tensor.Tensor, k float64) ([]*tensor.Tensor, int) {
	out := make([]*tensor.Tensor, len(deltas))
	nnz := 0
	for i, src := range deltas {
		d := src.Clone()
		out[i] = d
		total := d.Size()
		keep := int(k * float64(total))
		if keep < 1 {
			keep = 1
		}
		if keep >= total {
			nnz += total
			continue
		}
		mags := make([]float64, total)
		for j, v := range d.Data {
			if v < 0 {
				v = -v
			}
			mags[j] = float64(v)
		}
		sort.Float64s(mags)
		threshold := mags[total-keep]
		kept := 0
		for j, v := range d.Data {
			av := v
			if av < 0 {
				av = -av
			}
			if float64(av) < threshold || (threshold == 0 && v == 0) || kept >= keep {
				d.Data[j] = 0
			} else {
				kept++
			}
		}
		nnz += kept
	}
	return out, nnz
}

// benchDeltas builds a model-delta-shaped tensor list for the top-K
// benchmarks: one conv-ish block and one large dense block.
func benchDeltas() []*tensor.Tensor {
	rng := rand.New(rand.NewSource(17))
	shapes := [][]int{{16, 8, 3, 3}, {256, 512}, {512}, {64, 256}}
	deltas := make([]*tensor.Tensor, len(shapes))
	for i, sh := range shapes {
		t := tensor.New(sh...)
		for j := range t.Data {
			t.Data[j] = float32(rng.NormFloat64())
		}
		deltas[i] = t
	}
	return deltas
}

// TestTopKOfMatchesSortReference pins byte-identical masks between the
// quickselect top-K and the sort it replaced.
func TestTopKOfMatchesSortReference(t *testing.T) {
	deltas := benchDeltas()
	for _, k := range []float64{0.01, 0.1, 0.5, 0.99} {
		got, gotN := topKOf(deltas, k)
		want, wantN := topKOfSortRef(deltas, k)
		if gotN != wantN {
			t.Fatalf("k=%v: quickselect kept %d, sort kept %d", k, gotN, wantN)
		}
		for i := range got {
			for j := range got[i].Data {
				if got[i].Data[j] != want[i].Data[j] {
					t.Fatalf("k=%v: tensor %d element %d differs", k, i, j)
				}
			}
		}
	}
}

func BenchmarkTopKOfQuickselect(b *testing.B) {
	deltas := benchDeltas()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topKOf(deltas, 0.1)
	}
}

func BenchmarkTopKOfSortRef(b *testing.B) {
	deltas := benchDeltas()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topKOfSortRef(deltas, 0.1)
	}
}
