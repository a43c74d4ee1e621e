package core

import (
	"math"

	"fedmp/internal/cluster"
	"fedmp/internal/simsched"
)

// asyncItem is one in-flight worker computation in the asynchronous engine.
// A lost item is an assignment destroyed by an injected fault: it surfaces
// at its finish time only so the PS can notice the loss and re-dispatch the
// worker. Finish times live in the scheduler; the item slot index rides on
// the event's ID.
type asyncItem struct {
	out  Output
	lost bool
}

// runAsync executes Algorithm 2 of the paper: the PS aggregates the first m
// local models to arrive, updates the global model, re-decides pruning
// ratios for exactly those m workers and sends them fresh sub-models while
// the other workers keep training their (now stale) assignments. In-flight
// completions are KindWorkerDone events on the shared virtual-time
// scheduler — FIFO tie-breaking makes simultaneous arrivals aggregate in
// dispatch order. Injected faults destroy in-flight work: the affected
// worker re-enters the dispatch cycle once its loss surfaces (crashes
// additionally delay that until the device has recovered). The bookkeeping
// — RoundInfo, RoundStat, evaluation, targets and budgets — is the Driver's;
// only the order of collect, aggregate and re-dispatch is this engine's own.
func (r *runner) runAsync() (*Result, error) {
	r.evaluate(0, r.now)
	// Decision and pruning overhead of a dispatch is recorded with the next
	// completed round's stats via these accumulators.
	var pendingDecision, pendingPrune float64
	inflight := make([]asyncItem, 0, r.cfg.Workers)
	free := make([]int, 0, r.cfg.Workers)
	schedule := func(it asyncItem, finish float64) {
		slot := len(inflight)
		if n := len(free); n > 0 {
			slot = free[n-1]
			free = free[:n-1]
			inflight[slot] = it
		} else {
			inflight = append(inflight, it)
		}
		r.sched.Push(finish, simsched.KindWorkerDone, int64(slot))
	}

	// dispatch assigns the given workers against the current global model
	// and schedules their completions. Training is sharded like the
	// synchronous engine's cohorts; completions are pushed in assignment
	// order, so the event sequence matches the serial engine's exactly.
	dispatch := func(round int, workers []int) error {
		info := r.info(round)
		var faults []cluster.Fault
		if r.injector != nil {
			faults = r.injector.Advance(round)
		}
		assignments, err := r.strategy.Assign(info, workers)
		if err != nil {
			return err
		}
		runnable := r.runnable[:0]
		for _, a := range assignments {
			if faults != nil && faults[a.Worker].Down {
				// The assignment is lost. A crashed device surfaces after
				// its recovery window; a blackout costs one mean round.
				delay := math.Max(info.MeanRoundTime, 1)
				if faults[a.Worker].Fresh && r.cfg.Faults.CrashProb > 0 {
					delay *= float64(r.cfg.Faults.DownRounds)
				}
				schedule(asyncItem{out: Output{Assignment: a}, lost: true}, r.now+delay)
				continue
			}
			runnable = append(runnable, a)
		}
		r.runnable = runnable
		outs, err := r.trainCohort(runnable, round)
		if err != nil {
			return err
		}
		for i := range outs {
			if faults != nil && faults[outs[i].Worker].Slowdown > 1 {
				outs[i].CompTime *= faults[outs[i].Worker].Slowdown
				outs[i].Total = outs[i].CompTime + outs[i].CommTime
			}
			schedule(asyncItem{out: outs[i]}, r.now+outs[i].Total)
		}
		pendingDecision += info.DecisionSeconds
		pendingPrune += info.PruneSeconds
		return nil
	}
	if err := dispatch(0, r.workerIDs); err != nil {
		return nil, err
	}

	for round := 1; ; round++ {
		m := r.cfg.AsyncM
		if m > r.sched.Len() {
			m = r.sched.Len()
		}
		if m == 0 {
			break
		}
		// The round's participants, losses and re-dispatch list live in the
		// runner's scratch: Aggregate, record and dispatch read them only
		// until they return.
		outs, dropped := r.participants[:0], r.late[:0]
		var roundEnd float64
		for len(outs) < m && r.sched.Len() > 0 {
			ev, _ := r.sched.Pop()
			it := inflight[ev.ID]
			inflight[ev.ID] = asyncItem{}
			free = append(free, int(ev.ID))
			if ev.Time > roundEnd {
				roundEnd = ev.Time
			}
			if it.lost {
				dropped = append(dropped, it.out.Assignment)
				continue
			}
			outs = append(outs, it.out)
		}
		r.participants, r.late = outs, dropped
		info := r.info(round)
		var err error
		if r.global, err = r.strategy.Aggregate(info, outs, dropped); err != nil {
			return nil, err
		}
		roundTime := roundEnd - r.now
		if roundTime < 0 {
			roundTime = 0
		}
		info.DecisionSeconds += pendingDecision
		info.PruneSeconds += pendingPrune
		pendingDecision, pendingPrune = 0, 0
		r.advance(roundTime)
		r.record(round, info, outs, len(dropped), 0, roundTime)

		// The evaluation is not a scheduler event here as it is in the
		// synchronous engine: the heap holds live in-flight completions
		// that must stay queued for later rounds.
		if round%r.cfg.EvalEvery == 0 && r.reached(r.evaluate(round, r.now)) || r.spent(round, r.now) {
			break
		}

		// Re-dispatch exactly the workers that just reported or whose work
		// was lost (Alg. 2 lines 9–10, extended with loss recovery).
		workers := r.available[:0]
		for _, o := range outs {
			workers = append(workers, o.Worker)
		}
		for _, a := range dropped {
			workers = append(workers, a.Worker)
		}
		r.available = workers
		r.releaseRound()
		if err := dispatch(round, workers); err != nil {
			return nil, err
		}
	}
	r.seal(r.now)
	r.res.Events = int64(r.sched.Processed())
	return r.res, nil
}
