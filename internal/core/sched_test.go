package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// sampledFamily checks the runner's cohorts at each round's planning step —
// after Workers has bound the cohort, before the clock moves: every device
// sampled must be available at the round's start. ids collects them all.
type sampledFamily struct {
	*ImageFamily
	t   *testing.T
	r   *runner
	ids []int
}

func (f *sampledFamily) PlanContext(weights []*tensor.Tensor, dst PlanContext) (PlanContext, error) {
	for _, id := range f.r.cohortIDs {
		if !f.r.pop.Available(id, f.r.now) {
			f.t.Errorf("device %d sampled at %v while unavailable", id, f.r.now)
		}
	}
	f.ids = append(f.ids, f.r.cohortIDs...)
	return f.ImageFamily.PlanContext(weights, dst)
}

// runSampled runs cfg through a sampledFamily and returns the result and
// every device id sampled.
func runSampled(t *testing.T, cfg Config) (*Result, []int) {
	t.Helper()
	fam := &sampledFamily{ImageFamily: tinyFamily(), t: t}
	r, err := newRunner(fam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fam.r = r
	res, err := r.run()
	if err != nil {
		t.Fatal(err)
	}
	if len(fam.ids) == 0 {
		t.Fatal("no device was ever sampled")
	}
	return res, fam.ids
}

// TestPopulationChurnRun exercises the full scale path: a large-ish
// population, a small sampled cohort, both availability gates on, streaming
// metrics — the million-device configuration in miniature. Every cohort is
// available at its round's start (sampledFamily), and with one region dark
// for the whole run none of its devices is ever sampled.
func TestPopulationChurnRun(t *testing.T) {
	cfg := quickCfg(StrategyFedMP, 5)
	cfg.Workers = 3
	cfg.StreamMetrics = true
	cfg.Population = &cluster.Population{
		Size:    500,
		Diurnal: cluster.Diurnal{Period: 40, OnFraction: 0.6},
		Outage:  cluster.Outage{Regions: 4, Prob: 0.3, Period: 25, Duration: 12},
	}
	res, _ := runSampled(t, cfg)
	if res.Rounds != 5 {
		t.Fatalf("ran %d rounds, want 5", res.Rounds)
	}
	if res.Stream == nil || res.Stream.Rounds != 5 {
		t.Fatalf("stream = %+v", res.Stream)
	}
	if res.Stream.Participants.Max > float64(cfg.Workers) {
		t.Errorf("a round had %v participants, cohort is %d", res.Stream.Participants.Max, cfg.Workers)
	}
	// Determinism: the same config replays the same run.
	res2, _ := runSampled(t, cfg)
	if got, want := resultFingerprint(t, res2), resultFingerprint(t, res); got != want {
		t.Fatal("population churn run is not deterministic")
	}

	// Two regions and one outage window spanning the run: pick the first
	// seed whose draw darkens region 0 (even ids) and spares region 1.
	dark := cluster.Population{Size: 40, Outage: cluster.Outage{Regions: 2, Prob: 0.5, Period: 1e9, Duration: 1e9}}
	dark.Seed = 1
	for dark.Available(0, 0) || !dark.Available(1, 0) {
		dark.Seed++
	}
	cfg = quickCfg(StrategyFedMP, 4)
	cfg.Workers = 3
	cfg.Population = &dark
	_, ids := runSampled(t, cfg)
	for _, id := range ids {
		if dark.Region(id) == 0 {
			t.Fatalf("device %d of the dark region was sampled (cohorts %v)", id, ids)
		}
	}
}

// TestDeadlineCloseIsInclusive pins closeRound's §V-A filter on hand-built
// outputs, the round opening at 10 s so arrivals are the same float sums the
// engine forms. A worker finishing exactly at the deadline participates; the
// round lasts until the deadline when someone is late or failures made the PS
// wait, and until the last arrival otherwise.
func TestDeadlineCloseIsInclusive(t *testing.T) {
	for _, tc := range []struct {
		name           string
		faultTolerance bool
		factor         float64
		totals         []float64
		failures       bool
		wantLate       []int
		wantTime       float64
	}{
		// Median 3 × 1.5: worker 1 lands on the 4.5 s deadline, worker 3 misses it.
		{"tie-late", true, 1.5, []float64{2, 4.5, 3, 6}, false, []int{3}, 4.5},
		// Median 2 × 2: worker 2 lands on the 4 s deadline, the last arrival.
		{"tie-failures", true, 2, []float64{1, 2, 4, 3}, true, nil, 4},
		// Median 2 × 2: everyone is in by 3.5 s, before the 4 s deadline.
		{"early", true, 2, []float64{1, 2, 3, 3.5}, false, nil, 3.5},
		{"early-failures", true, 2, []float64{1, 2, 3, 3.5}, true, nil, 4},
		// Without fault tolerance there is no deadline to wait out.
		{"no-deadline", false, 0, []float64{1, 2, 3, 3.5}, true, nil, 3.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Workers: len(tc.totals), FaultTolerance: tc.faultTolerance, DeadlineQuantile: 0.5, DeadlineFactor: tc.factor}
			r := &runner{Driver: &Driver{cfg: cfg}, now: 10}
			outs := make([]Output, len(tc.totals))
			for i, total := range tc.totals {
				outs[i] = Output{Assignment: Assignment{Worker: i}, Total: total}
			}
			participants, late, seconds := r.closeRound(outs, tc.failures)
			var gotIn, gotLate, wantIn []int
			for _, o := range participants {
				gotIn = append(gotIn, o.Worker)
			}
			for _, a := range late {
				gotLate = append(gotLate, a.Worker)
			}
			for i := range tc.totals {
				if !slices.Contains(tc.wantLate, i) {
					wantIn = append(wantIn, i)
				}
			}
			if !slices.Equal(gotIn, wantIn) || !slices.Equal(gotLate, tc.wantLate) {
				t.Errorf("participants %v, late %v; want %v, %v", gotIn, gotLate, wantIn, tc.wantLate)
			}
			if seconds != tc.wantTime {
				t.Errorf("round lasted %v s, want %v s", seconds, tc.wantTime)
			}
		})
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

func (f *liveHeapFamily) PlanContext(weights []*tensor.Tensor, dst PlanContext) (PlanContext, error) {
	f.live = append(f.live, liveHeap())
	if f.parked != nil {
		f.parkedCount = append(f.parkedCount, f.parked())
	}
	return f.ImageFamily.PlanContext(weights, dst)
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
// mode: at a fixed cohort the memory of a run does not depend on how many
// devices exist. What the same 50-round, cohort-30 run over 10³ and 10⁶
// devices holds live in its last round grows by no more than the devices it
// sampled: the small population is sampled with repeats (~780 distinct of
// 1 500 draws), the large one almost without, hence the factor of two.
func TestPopulationCostIndependentOfSize(t *testing.T) {
	run := func(size int) (growth int64) {
		fam := &liveHeapFamily{ImageFamily: tinyFamily()}
		before := liveHeap()
		if _, err := Run(fam, populationHeapCfg(50, size)); err != nil {
			t.Fatal(err)
		}
		return int64(fam.live[len(fam.live)-1]) - int64(before)
	}
	smallGrowth, largeGrowth := run(1_000), run(1_000_000)
	if limit := 2*smallGrowth + 256<<10; largeGrowth > limit {
		t.Errorf("live heap grew %d KiB over 10⁶ devices, %d KiB over 10³; want at most %d KiB",
			largeGrowth>>10, smallGrowth>>10, limit>>10)
	}
	t.Logf("live-heap growth %d KiB (10³), %d KiB (10⁶)", smallGrowth>>10, largeGrowth>>10)
}

// TestPopulationHeapFlatInRounds is the other axis of the scaling claim: what
// a long run over 10⁶ devices keeps per device it has ever sampled is the
// parked jitter state in the park table, not a generator — and the table is
// sized for the whole run when it starts. Between rounds 50 and 200 the live
// heap may grow by a constant, however many devices are first sampled in
// between.
func TestPopulationHeapFlatInRounds(t *testing.T) {
	fam := &liveHeapFamily{ImageFamily: tinyFamily()}
	cfg := populationHeapCfg(200, 1_000_000)
	// No bandit: an E-UCB agent's history grows until its 400-round horizon.
	cfg.Strategy, cfg.FixedRatio = StrategyFixed, 0.5
	r, err := newRunner(fam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fam.parked = func() int { return r.devCache.n }
	if _, err := r.run(); err != nil {
		t.Fatal(err)
	}
	growth := int64(fam.live[199]) - int64(fam.live[49])
	devices := int64(fam.parkedCount[199] - fam.parkedCount[49])
	if limit := int64(64 << 10); growth > limit || devices < 4000 {
		t.Errorf("live heap grew %d KiB from round 50 to round 200 over %d newly sampled devices; want at most %d KiB over 4000+ devices",
			growth>>10, devices, limit>>10)
	}
	t.Logf("live-heap growth %d KiB over %d newly sampled devices", growth>>10, devices)
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

// TestParkTableMatchesAMap holds the park table to a map: sized for d
// devices, it parks d of them and parks them again without growing; then it
// grows, and every id reads back the state last parked under it while an id
// never parked reads as empty.
func TestParkTableMatchesAMap(t *testing.T) {
	const d = 1000
	pop, err := cluster.Population{Size: 1 << 20}.Normalized(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	states := []cluster.Parked{pop.Device(1).Parked, pop.Device(2).Parked}
	tab, want := newParkTable(d), map[int]cluster.Parked{}
	keys := &tab.keys[0]
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5*d; i++ {
		id := rng.Intn(pop.Size)
		if i < 2*d {
			id = (i % d) * 1021 // d distinct ids, twice
		}
		tab.put(id, states[i%2])
		want[id] = states[i%2]
		if i == 2*d-1 && (&tab.keys[0] != keys || tab.n != d) {
			t.Fatalf("a table sized for %d devices grew holding %d", d, tab.n)
		}
	}
	if tab.n != len(want) || &tab.keys[0] == keys {
		t.Fatalf("table holds %d devices, want %d, and should have grown", tab.n, len(want))
	}
	for id, p := range want {
		if i := tab.slot(id); tab.keys[i] == 0 || tab.vals[i] != p {
			t.Fatalf("device %d reads back wrong", id)
		}
	}
	for id := 1; id < 1000; id++ {
		if _, parked := want[id]; !parked && tab.keys[tab.slot(id)] != 0 {
			t.Fatalf("device %d was never parked but reads as parked", id)
		}
	}
}
