package core

import (
	"math"
	"sort"

	"fedmp/internal/prune"
)

// sampleCohort draws this round's cohort: up to Workers distinct device ids
// available at the round's start (cluster.Population.Available), ascending.
// A cohort spanning the whole population is a filter scan with no randomness
// — which is why a cohort==population run reproduces the legacy fixed-worker
// loop draw for draw. Rejection sampling is capped so a blacked-out
// population yields a short (possibly empty) cohort — an idle round — rather
// than a spin.
func (r *runner) sampleCohort() []int {
	k := r.cfg.Workers
	size := r.pop.Size
	ids := r.cohortIDs[:0]
	if k >= size {
		for id := 0; id < size; id++ {
			if r.pop.Available(id, r.now) {
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
		if !r.pop.Available(id, r.now) {
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
// refactor) plus the executing goroutine's network, and outputs land
// at their assignment index — so the merged result is byte-identical to the
// serial loop, whatever the interleaving. The returned slice is the
// runner's, valid until the next cohort trains.
func (r *runner) trainCohort(assignments []Assignment, round int) ([]Output, error) {
	n := len(assignments)
	if n == 0 {
		return nil, nil
	}
	nets := r.localNets(n)
	if cap(r.outs) < n {
		r.outs, r.errs = make([]Output, n), make([]error, n)
	}
	outs, errs := r.outs[:n], r.errs[:n]
	shard(n, func(exec, i int) {
		outs[i], errs[i] = r.runWorker(assignments[i], round, nets[exec])
	})
	for _, err := range errs {
		// Deterministic error selection: lowest assignment index wins.
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// closeRound applies the §V-A deadline to the round's outputs. With fault
// tolerance on, the round closes at DeadlineFactor × the time by which
// DeadlineQuantile of the workers have delivered (an O(n) quickselect, not a
// sort); otherwise at the last arrival. A worker participates iff it arrived
// by the close — inclusively, so one arriving exactly at the deadline counts.
// The round lasts until the deadline when someone missed it, or when failures
// made the PS wait it out; otherwise until the last arrival. Participants and
// late assignments keep assignment order, so aggregation float sums never
// depend on arrival order; both slices are the runner's, valid until the next
// round closes.
func (r *runner) closeRound(outs []Output, hadFailures bool) (participants []Output, late []Assignment, roundTime float64) {
	if len(outs) == 0 {
		return nil, nil, 0
	}
	base := r.now
	closeAt := math.Inf(1) // no deadline: the round waits for everyone
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
	}
	participants, late = r.participants[:0], r.late[:0]
	lastArrival := base
	for i := range outs {
		if at := base + outs[i].Total; at <= closeAt {
			participants = append(participants, outs[i])
			lastArrival = max(lastArrival, at)
		} else {
			late = append(late, outs[i].Assignment)
		}
	}
	r.participants, r.late = participants, late
	if len(late) > 0 || r.cfg.FaultTolerance && hadFailures {
		return participants, late, closeAt - base
	}
	return participants, late, lastArrival - base
}
