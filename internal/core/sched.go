package core

import (
	"math"
	"slices"
	"sort"

	"fedmp/internal/prune"
	"fedmp/internal/simsched"
)

// Event-driven round machinery. Worker completions and the §V-A deadline
// are scheduler events: closeRound pushes one KindWorkerDone arrival per
// trained output plus one KindRoundClose at the deadline, then drains the
// heap in virtual-time order. FIFO tie-breaking makes a worker arriving
// exactly at the deadline count as delivered (it was pushed first),
// preserving the legacy inclusive `total <= deadline` participant rule.
//
// Completion events are tagged with their round (eventID below); a round
// that closes early, or a deadline that cuts workers off, leaves stale
// events in the heap, and the tag lets every drain loop discard them on
// sight instead of needing heap surgery. Churn events (regional outage
// start/end) are never stale — whatever loop pops them dispatches them.

// eventID packs (round, index) into one event payload so late arrivals
// from closed rounds are recognisably stale.
func eventID(round, i int) int64 {
	return int64(round)<<32 | int64(uint32(i))
}

// splitEventID undoes eventID.
func splitEventID(id int64) (round, i int) {
	return int(id >> 32), int(uint32(id))
}

// dispatchEvent handles an event that is not part of the current drain's
// protocol: churn transitions update availability state, stale
// completions and closes from finished rounds evaporate.
func (r *runner) dispatchEvent(ev simsched.Event) {
	switch ev.Kind {
	case simsched.KindOutageStart:
		if r.regionDown != nil {
			r.regionDown[ev.ID] = true
		}
	case simsched.KindOutageEnd:
		if r.regionDown != nil {
			r.regionDown[ev.ID] = false
		}
	}
}

// drainDue dispatches every event already in the virtual past — the churn
// that accumulated while the previous round ran — and tops up the outage
// event horizon. Called at the start of each round, before sampling.
func (r *runner) drainDue() {
	r.scheduleOutages()
	for {
		top, ok := r.sched.Peek()
		if !ok || top.Time > r.now {
			return
		}
		ev, _ := r.sched.Pop()
		r.dispatchEvent(ev)
	}
}

// scheduleOutages extends the regional-outage event horizon one window
// past the current virtual time: per window and region, a deterministic
// draw (shared with Population.Available) pushes a start/end event pair.
// O(regions) per window — the only churn cost, independent of population
// size; the diurnal gate needs no events at all because it is evaluated
// lazily per sampled device.
func (r *runner) scheduleOutages() {
	if r.pop == nil || !r.pop.Outage.Enabled() {
		return
	}
	o := r.pop.Outage
	for float64(r.nextWindow)*o.Period <= r.now+o.Period {
		w := r.nextWindow
		start := float64(w) * o.Period
		for region := 0; region < o.Regions; region++ {
			if r.pop.OutageDraw(region, w) {
				r.sched.Push(start, simsched.KindOutageStart, int64(region))
				r.sched.Push(start+o.Duration, simsched.KindOutageEnd, int64(region))
			}
		}
		r.nextWindow++
	}
}

// deviceUp reports whether a population device can be sampled right now:
// awake per its diurnal trace and outside any regional outage (the
// event-driven regionDown state, which tracks Population.Available's
// analytic answer exactly because both consume the same draws).
func (r *runner) deviceUp(id int) bool {
	if !r.pop.DiurnalOn(id, r.now) {
		return false
	}
	return r.regionDown == nil || !r.regionDown[r.pop.Region(id)]
}

// sampleCohort draws this round's cohort: up to Workers distinct available
// device ids, ascending. A cohort spanning the whole population is a
// filter scan with no randomness — which is why a cohort==population run
// reproduces the legacy fixed-worker loop draw for draw. Rejection
// sampling is capped so a blacked-out population yields a short (possibly
// empty) cohort — an idle round — rather than a spin.
func (r *runner) sampleCohort() []int {
	k := r.cfg.Workers
	size := r.pop.Size
	ids := r.cohortIDs[:0]
	if k >= size {
		for id := 0; id < size; id++ {
			if r.deviceUp(id) {
				ids = append(ids, id)
			}
		}
		return ids
	}
	tried := r.tried
	clear(tried)
	maxAttempts := 20*k + 64
	for attempts := 0; len(ids) < k && attempts < maxAttempts; attempts++ {
		id := r.cohortRng.Intn(size)
		if _, dup := tried[id]; dup {
			continue
		}
		tried[id] = struct{}{}
		if !r.deviceUp(id) {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// bindCohort samples this round's cohort (population mode), rebinds slot i's
// device to the i-th sampled id and returns the number of slots bound. A
// device sampled before resumes from the state releaseRound parked, so its
// jitter persists across the rounds that sample it; the parked states number
// the distinct devices ever sampled — O(cohort × rounds) worst case at 24
// bytes each, independent of population size — and binding allocates nothing.
func (r *runner) bindCohort() int {
	ids := r.sampleCohort()
	r.cohortIDs = ids
	for slot, id := range ids {
		dev := r.cohortDevs[slot]
		r.pop.Rebind(dev, id)
		if parked, seen := r.devCache[id]; seen {
			dev.Parked = parked
		}
	}
	return len(ids)
}

// trainCohort executes the runnable assignments' local SGD, sharded
// across GOMAXPROCS goroutines. Each worker touches only its own data
// source and device RNG (per-device sub-seeded since the population
// refactor) plus the executing goroutine's network cache, and outputs land
// at their assignment index — so the merged result is byte-identical to the
// serial loop, whatever the interleaving. The returned slice is the
// runner's, valid until the next cohort trains.
func (r *runner) trainCohort(assignments []Assignment, round int) ([]Output, error) {
	n := len(assignments)
	if n == 0 {
		return nil, nil
	}
	for len(r.caches) < executors(n) {
		r.caches = append(r.caches, NewNetCache(r.fam, r.cfg.LR, r.cfg.Momentum, r.cfg.WeightDecay))
	}
	if cap(r.outs) < n {
		r.outs, r.errs = make([]Output, n), make([]error, n)
	}
	outs, errs := r.outs[:n], r.errs[:n]
	shard(n, func(exec, i int) {
		outs[i], errs[i] = r.runWorker(assignments[i], round, r.caches[exec])
	})
	for _, err := range errs {
		// Deterministic error selection: lowest assignment index wins.
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// closeRound realises the §V-A deadline mechanism through the scheduler:
// with fault tolerance on, the deadline is DeadlineFactor × the time at
// which DeadlineQuantile of the workers have delivered (an O(n)
// quickselect, not a sort); slower workers are dropped from the round.
// Returns participants (re-sorted to assignment order, so aggregation
// float sums never depend on arrival interleaving), late assignments and
// the round's virtual duration; both slices are the runner's, valid until
// the next round closes. With failures present the PS always waits
// until the deadline; otherwise the round closes at the last arrival.
func (r *runner) closeRound(round int, outs []Output, hadFailures bool) (participants []Output, late []Assignment, roundTime float64) {
	if len(outs) == 0 {
		return nil, nil, 0
	}
	var longest float64
	for i := range outs {
		if outs[i].Total > longest {
			longest = outs[i].Total
		}
	}
	base := r.now
	for i := range outs {
		r.sched.Push(base+outs[i].Total, simsched.KindWorkerDone, eventID(round, i))
	}
	closeAt := base + longest
	waitDeadline := false
	if r.cfg.FaultTolerance {
		times := r.timesScratch[:0]
		for i := range outs {
			times = append(times, outs[i].Total)
		}
		r.timesScratch = times
		qi := int(math.Ceil(r.cfg.DeadlineQuantile*float64(r.cfg.Workers))) - 1
		if qi >= len(times) {
			qi = len(times) - 1
		}
		closeAt = base + r.cfg.DeadlineFactor*prune.SelectKth(times, qi)
		waitDeadline = hadFailures
	}
	r.sched.Push(closeAt, simsched.KindRoundClose, int64(round))

	arrived := r.arrived[:0]
	closeTime := closeAt
	lastArrival := base
drain:
	for {
		if !waitDeadline && len(arrived) == len(outs) {
			// Everyone delivered before the deadline: the round closes at
			// the last arrival; the pending close event goes stale.
			closeTime = lastArrival
			break
		}
		ev, ok := r.sched.Pop()
		if !ok {
			break
		}
		switch ev.Kind {
		case simsched.KindWorkerDone:
			evRound, i := splitEventID(ev.ID)
			if evRound != round {
				continue // late arrival of an already-closed round
			}
			arrived = append(arrived, i)
			lastArrival = ev.Time
		case simsched.KindRoundClose:
			if int(ev.ID) != round {
				continue // stale close of an early-closed round
			}
			closeTime = ev.Time
			break drain
		default:
			r.dispatchEvent(ev)
		}
	}
	// Arrival order back to assignment order: which workers made it is the
	// scheduler's answer, but aggregation order stays the dispatch order.
	sort.Ints(arrived)
	r.arrived = arrived
	r.hasArrived = slices.Grow(r.hasArrived[:0], len(outs))[:len(outs)]
	hasArrived := r.hasArrived
	clear(hasArrived)
	participants = r.participants[:0]
	for _, i := range arrived {
		participants = append(participants, outs[i])
		hasArrived[i] = true
	}
	r.participants = participants
	late = r.late[:0]
	for i := range outs {
		if !hasArrived[i] {
			late = append(late, outs[i].Assignment)
		}
	}
	r.late = late
	return participants, late, closeTime - base
}
