package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"fedmp/internal/cluster"
	"fedmp/internal/simsched"
	"fedmp/internal/tensor"
	"fedmp/internal/transport/codec"
)

// runner is one simulation run: the Driver plus the in-process Executor it
// drives — device scenario or population, data sources, fault injector and
// the virtual-time scheduler. It is itself the lockstep executor (Fig. 1);
// asyncExec runs Alg. 2 over the same state.
type runner struct {
	*Driver
	fam      Family
	devices  []*cluster.Device
	sources  []Source
	rng      *rand.Rand
	injector *cluster.Injector
	// faults is the injector's verdict for the round Workers last opened.
	faults []cluster.Fault

	// sched is the event-driven virtual-time core: worker completions,
	// round closes, eval ticks and churn transitions all pass through it.
	// now is the virtual clock.
	sched *simsched.Scheduler
	now   float64

	// Population mode (cfg.Population != nil): pop is the lazy device
	// universe, cohortRng draws each round's sample, cohortIDs maps cohort
	// slots to sampled device ids, cohortDevs is each slot's one live device,
	// rebound every round, devCache parks the jitter state of every device
	// sampled so far — pointer-free, the collector never scans it — and
	// regionDown is the event-driven regional outage state.
	pop        *cluster.Population
	cohortRng  *rand.Rand
	cohortIDs  []int
	cohortDevs []*cluster.Device
	devCache   map[int]cluster.Parked
	regionDown []bool
	nextWindow int64

	// timesScratch backs the deadline quantile selection.
	timesScratch []float64

	// caches holds one network cache per cohort-training executor (see
	// shard), grown to the executor count before a cohort trains.
	caches []*NetCache
	// leftover is each slot's top-K compression error, kept as a TCP worker
	// keeps its own (WorkerStep).
	leftover [][]*tensor.Tensor

	// Round-scoped scratch, re-sliced every round instead of reallocated.
	// workerIDs is the fixed [0..Workers) identity list; the rest hold the
	// round's availability filter, failure split, trained outputs, arrival
	// bookkeeping and cohort sampling state. Nothing outlives the round it
	// was filled in: strategies read the slices they are handed only during
	// the call.
	workerIDs    []int
	available    []int
	failed       []Assignment
	runnable     []Assignment
	outs         []Output
	errs         []error
	arrived      []int
	hasArrived   []bool
	participants []Output
	late         []Assignment
	tried        map[int]struct{}
}

// newRunner validates cfg and builds the engine: the driver, then data
// sources and the device scenario or population.
func newRunner(fam Family, cfg Config) (*runner, error) {
	d, err := NewDriver(fam, cfg)
	if err != nil {
		return nil, err
	}
	cfg = d.cfg
	if cfg.FailureRate > 0 && !cfg.FaultTolerance {
		return nil, fmt.Errorf("core: failure injection requires fault tolerance")
	}
	var devices []*cluster.Device
	if cfg.Population == nil {
		scenario := cfg.Scenario
		if scenario == nil {
			scenario = cluster.Default(cfg.Workers, cfg.Seed+7)
		}
		if scenario.N() != cfg.Workers {
			return nil, fmt.Errorf("core: scenario has %d devices for %d workers", scenario.N(), cfg.Workers)
		}
		devices = scenario.Devices
	}
	sources, err := fam.Sources(cfg.Workers, cfg.NonIID, cfg.BatchSize, cfg.Seed+17)
	if err != nil {
		return nil, err
	}
	r := &runner{
		Driver:  d,
		fam:     fam,
		devices: devices,
		sources: sources,
		rng:     rand.New(rand.NewSource(cfg.Seed + 29)),
		sched:   simsched.New(4*cfg.Workers + 8),

		leftover: make([][]*tensor.Tensor, cfg.Workers),
	}
	r.workerIDs = make([]int, cfg.Workers)
	for i := range r.workerIDs {
		r.workerIDs[i] = i
	}
	if cfg.Population != nil {
		r.pop = cfg.Population
		r.cohortRng = cfg.Population.Rand(0)
		r.cohortIDs = make([]int, 0, cfg.Workers)
		r.cohortDevs = make([]*cluster.Device, cfg.Workers)
		for slot := range r.cohortDevs {
			r.cohortDevs[slot] = r.pop.Device(0) // bindCohort rebinds it
		}
		r.devCache = make(map[int]cluster.Parked)
		r.tried = make(map[int]struct{}, cfg.Workers)
		if cfg.Population.Outage.Enabled() {
			r.regionDown = make([]bool, cfg.Population.Outage.Regions)
		}
	}
	if cfg.Faults.Enabled() {
		r.injector = cluster.NewInjector(cfg.Faults, cfg.Workers)
	}
	return r, nil
}

// Run executes one federated simulation and returns its result. Local SGD
// is executed for real on the family's data; completion times are virtual,
// charged by the cluster model.
func Run(fam Family, cfg Config) (*Result, error) {
	r, err := newRunner(fam, cfg)
	if err != nil {
		return nil, err
	}
	return r.run()
}

// run drives the rounds on the executor the configuration selects and
// counts the scheduler events they took.
func (r *runner) run() (*Result, error) {
	var exec Executor = r
	if r.cfg.Async {
		exec = &asyncExec{runner: r, inflight: make([]asyncItem, r.cfg.Workers), next: slices.Clone(r.workerIDs)}
	}
	r.sched.Advance(r.now)
	res, err := r.Drive(exec)
	if err != nil {
		return nil, err
	}
	res.Events = int64(r.sched.Processed())
	return res, nil
}

// Workers implements Executor: drain due churn events, then select the
// round's worker slots, ascending — the fixed set, or a cohort sampled into
// the first slots in population mode. With fault injection enabled, devices
// recovering from an earlier crash are skipped up front (suspect, mirroring
// the wire runtime's suspect state).
func (r *runner) Workers(round int) (assignable []int, suspect, behind int, err error) {
	r.drainDue()
	r.faults = nil
	if r.injector != nil {
		r.faults = r.injector.Advance(round)
	}
	slots := r.cfg.Workers
	if r.pop != nil {
		slots = r.bindCohort()
	}
	if r.faults == nil {
		return r.workerIDs[:slots], 0, 0, nil
	}
	assignable = r.available[:0]
	for slot, f := range r.faults[:slots] {
		if f.Down && !f.Fresh {
			suspect++
			continue
		}
		assignable = append(assignable, slot)
	}
	r.available = assignable
	return assignable, suspect, 0, nil
}

// trainSpared trains the assignments the round's faults spare, pricing
// their frames under the given wire round number. A device the injector has
// down loses its assignment, as does any other with probability
// failureRate; a straggling device's compute time is stretched by its
// slowdown. Both slices are the runner's round scratch.
func (r *runner) trainSpared(wireRound int, assignments []Assignment, failureRate float64) (outs []Output, failed []Assignment, err error) {
	faults := r.faults
	// The filter stays serial: the engine RNG's draw order is part of the
	// trajectory.
	failed, runnable := r.failed[:0], r.runnable[:0]
	for _, a := range assignments {
		if faults != nil && faults[a.Worker].Down || failureRate > 0 && r.rng.Float64() < failureRate {
			failed = append(failed, a)
			continue
		}
		runnable = append(runnable, a)
	}
	r.failed, r.runnable = failed, runnable
	if outs, err = r.trainCohort(runnable, wireRound); err != nil {
		return nil, nil, err
	}
	if faults != nil {
		for i := range outs {
			if f := faults[outs[i].Worker]; f.Slowdown > 1 {
				outs[i].CompTime *= f.Slowdown
				outs[i].Total = outs[i].CompTime + outs[i].CommTime
			}
		}
	}
	return outs, failed, nil
}

// Run implements Executor: train the cohort in parallel, then close the
// round through the event scheduler — completions and the fault-tolerance
// deadline are heap events popped in virtual-time order. Devices hit by an
// injected fault mid-round lose their assignment.
func (r *runner) Run(round int, assignments []Assignment) (delivered []Output, lost []Assignment, seconds float64, err error) {
	outs, failed, err := r.trainSpared(round, assignments, r.cfg.FailureRate)
	if err != nil {
		return nil, nil, 0, err
	}
	delivered, late, seconds := r.closeRound(round, outs, len(failed) > 0)
	lost = append(failed, late...)
	r.failed = lost
	if len(late) > 0 && len(late) < len(lost) {
		// Assignments come in ascending worker order.
		slices.SortFunc(lost, func(a, b Assignment) int { return a.Worker - b.Worker })
	}
	r.advance(seconds)
	return delivered, lost, seconds, nil
}

// Idle implements Executor: when nobody ran (everyone down, recovering or
// unavailable) the PS idles for a mean round before trying the next one.
func (r *runner) Idle(seconds, meanRoundTime float64) (float64, bool) {
	if seconds == 0 {
		seconds = math.Max(meanRoundTime, 1)
		r.advance(seconds)
	}
	return seconds, true
}

// Now implements Executor: the virtual clock.
func (r *runner) Now() float64 { return r.now }

// Closed implements Executor. An evaluated round ticks the scheduler: an
// eval event is pushed at the round's close time and popped through the
// heap, so any churn that came due during the round is dispatched first, in
// virtual-time order. The simulator persists nothing.
func (r *runner) Closed(round int, eval *Point, snap func() *State) error {
	r.releaseRound()
	if eval == nil {
		return nil
	}
	r.sched.Push(r.now, simsched.KindEval, int64(round))
	for {
		ev, ok := r.sched.Pop()
		if !ok || ev.Kind == simsched.KindEval {
			return nil
		}
		r.dispatchEvent(ev)
	}
}

// asyncBehind is how far Alg. 2 numbers a dispatch behind the round that
// opens it: the initial dispatch is number 0 — the strategies' "nothing
// observed yet" — and each later one carries the number of the aggregation
// it follows. The injector's schedule and the priced frames' round field
// follow the dispatch number, as they follow the round in lockstep runs.
const asyncBehind = 1

// asyncItem is one in-flight assignment under Alg. 2. A lost item is an
// assignment destroyed by an injected fault: it surfaces at its finish time
// only so the PS can notice the loss and re-dispatch the worker. Finish
// times live in the scheduler; the worker index rides on the event ID.
type asyncItem struct {
	out  Output
	lost bool
}

// asyncExec runs Algorithm 2 of the paper on the runner's cluster: a round
// aggregates the first m local models to arrive, and the next one re-decides
// pruning ratios for exactly those m workers and sends them fresh sub-models
// while the others keep training their (now stale) assignments. In-flight
// completions are KindWorkerDone events on the shared scheduler — nothing
// else is ever queued here, so evaluation is not a scheduler event as it is
// in lockstep rounds. Injected faults destroy in-flight work: the affected
// worker re-enters the dispatch cycle once its loss surfaces. The §V-A
// deadline and Config.FailureRate play no part.
type asyncExec struct {
	*runner
	// inflight holds each worker's dispatched assignment — a worker is
	// dispatched again only once its last one has surfaced; next lists whom
	// the coming round dispatches.
	inflight []asyncItem
	next     []int
}

// Workers implements Executor: everyone at first, then exactly the workers
// that reported or were lost last round, in that order (Alg. 2 lines 9–10,
// extended with loss recovery).
func (x *asyncExec) Workers(round int) (assignable []int, suspect, behind int, err error) {
	x.faults = nil
	if x.injector != nil {
		x.faults = x.injector.Advance(round - asyncBehind)
	}
	return x.next, 0, asyncBehind, nil
}

// schedule puts an item in flight until the virtual time finish.
func (x *asyncExec) schedule(it asyncItem, finish float64) {
	x.inflight[it.out.Worker] = it
	x.sched.Push(finish, simsched.KindWorkerDone, int64(it.out.Worker))
}

// Run implements Executor: dispatch the assignments — losses first, then
// completions in assignment order, so simultaneous arrivals surface in
// dispatch order — and pop arrivals until m results are in. A crashed
// device's loss surfaces after its recovery window, a blackout's after one
// mean round.
func (x *asyncExec) Run(round int, assignments []Assignment) (delivered []Output, lost []Assignment, seconds float64, err error) {
	outs, failed, err := x.trainSpared(round-asyncBehind, assignments, 0)
	if err != nil {
		return nil, nil, 0, err
	}
	blackout := math.Max(x.meanRoundTime(), 1)
	for _, a := range failed {
		delay := blackout
		if x.faults[a.Worker].Fresh && x.cfg.Faults.CrashProb > 0 {
			delay *= float64(x.cfg.Faults.DownRounds)
		}
		x.schedule(asyncItem{out: Output{Assignment: a}, lost: true}, x.now+delay)
	}
	for i := range outs {
		x.schedule(asyncItem{out: outs[i]}, x.now+outs[i].Total)
	}
	m := min(x.cfg.AsyncM, x.sched.Len())
	if m == 0 {
		return nil, nil, 0, fmt.Errorf("core: round %d has nothing in flight", round)
	}
	delivered, lost = x.participants[:0], x.late[:0]
	end := x.now
	for len(delivered) < m && x.sched.Len() > 0 {
		ev, _ := x.sched.Pop()
		it := x.inflight[ev.ID]
		x.inflight[ev.ID] = asyncItem{}
		end = math.Max(end, ev.Time)
		if it.lost {
			lost = append(lost, it.out.Assignment)
		} else {
			delivered = append(delivered, it.out)
		}
	}
	x.participants, x.late = delivered, lost
	x.next = x.next[:0]
	for i := range delivered {
		x.next = append(x.next, delivered[i].Worker)
	}
	for i := range lost {
		x.next = append(x.next, lost[i].Worker)
	}
	seconds = end - x.now
	x.advance(seconds)
	return delivered, lost, seconds, nil
}

// Idle implements Executor: a round of nothing but losses took the time it
// took, and the lost workers are dispatched again.
func (x *asyncExec) Idle(seconds, meanRoundTime float64) (float64, bool) { return seconds, true }

// Closed implements Executor.
func (x *asyncExec) Closed(round int, eval *Point, snap func() *State) error {
	x.releaseRound()
	return nil
}

// advance moves the virtual clock forward.
func (r *runner) advance(seconds float64) {
	r.now += seconds
	r.sched.Advance(r.now)
}

// releaseRound parks the cohort's devices where the round left them and drops
// the round scratch's references to the round's models — the assignments'
// sub-weights, the trained outputs — so they are collectable once the round
// is over, exactly as when these slices were allocated per round; the scratch
// keeps only its backing arrays.
func (r *runner) releaseRound() {
	for slot, id := range r.cohortIDs {
		r.devCache[id] = r.cohortDevs[slot].Parked
	}
	clear(r.failed)
	clear(r.runnable)
	clear(r.outs)
	clear(r.participants)
	clear(r.late)
}

// deviceFor resolves a worker slot to its device: the fixed scenario
// device, or the cohort member sampled into the slot this round.
func (r *runner) deviceFor(w int) *cluster.Device {
	if r.pop != nil {
		return r.cohortDevs[w]
	}
	return r.devices[w]
}

// deliver is what a frame carrying ts hands its receiver: the codec's int8
// reconstruction under QuantizeWire — the one lossy hop a real frame takes —
// and the tensors themselves otherwise.
func (r *runner) deliver(ts []*tensor.Tensor) []*tensor.Tensor {
	if ts == nil || !r.cfg.QuantizeWire {
		return ts
	}
	return codec.Dequantized(ts)
}

// runWorker executes one assignment — the exchange of core/local.go with
// delivery in place of sockets: local training for real, virtual time charged
// per the device model (phase ② of Fig. 1). round is the wire round index,
// threaded through so the size model prices exactly the frames the TCP
// runtime would send, sparse-mode compression included — Figs. 5 and 9 report
// real encoded bytes, not a parameter-count estimate. It touches only
// per-assignment state — the worker's own source, leftover and device — and
// the calling executor's network cache, whose networks train exactly as
// freshly built ones do, which is what lets trainCohort shard calls across
// goroutines without changing a byte of the result. Once the cache is warm
// the call allocates only what it returns and prices: the trained weights
// (which become the delta, then the new weights) and the two frames.
func (r *runner) runWorker(a Assignment, round int, cache *NetCache) (Output, error) {
	out := Output{Assignment: a}
	assign := a.Frame(round, r.cfg.QuantizeWire)
	var err error
	if out.DownBytes, err = codec.FrameBytes(assign); err != nil {
		return Output{}, fmt.Errorf("core: sizing worker %d assignment: %w", a.Worker, err)
	}
	assign.Assign.Weights = r.deliver(a.Weights)
	res, err := WorkerStep(cache, r.sources[a.Worker], assign.Assign, r.cfg.Seed, &r.leftover[a.Worker])
	if err != nil {
		return Output{}, fmt.Errorf("core: worker %d: %w", a.Worker, err)
	}
	result := &codec.Envelope{Kind: codec.KindResult, Quantize: r.cfg.QuantizeWire, Result: res}
	if out.UpBytes, err = codec.FrameBytes(result); err != nil {
		return Output{}, fmt.Errorf("core: sizing worker %d result: %w", a.Worker, err)
	}
	res.Delta, res.Update = r.deliver(res.Delta), r.deliver(res.Update)
	if err := out.Receive(res); err != nil {
		return Output{}, fmt.Errorf("core: worker %d: %w", a.Worker, err)
	}

	dev := r.deviceFor(a.Worker)
	fwd, err := r.fam.ForwardFLOPs(a.Desc)
	if err != nil {
		return Output{}, err
	}
	flops := 3 * fwd * float64(a.Iters*r.cfg.BatchSize)
	out.CompTime = dev.ComputeTime(flops)
	out.CommTime = dev.CommTime(out.DownBytes + out.UpBytes)
	out.Total = out.CompTime + out.CommTime
	return out, nil
}
