// Package simclock abstracts elapsed-time measurement so the deterministic
// simulation layers (internal/core, internal/cluster, internal/bandit,
// internal/experiment) never touch the wall clock directly. Those packages
// are banned from calling time.Now/time.Since/time.Sleep by the fedmp-lint
// wallclock analyzer; any overhead accounting they do flows through a Clock
// threaded in from the composition root instead.
//
// Two implementations ship:
//
//   - Wall measures real elapsed seconds. It backs the Fig. 11 overhead
//     accounting (decision and pruning seconds are measured for real, not in
//     virtual time) and is the default a zero core.Config resolves to.
//   - Fixed charges a constant per interval, making every derived statistic
//     bit-reproducible. Tests and determinism-sensitive sweeps use it.
package simclock

import "time"

// Clock produces stopwatches for overhead accounting.
type Clock interface {
	// Stopwatch starts an interval measurement and returns a function that
	// reports the seconds elapsed since the Stopwatch call.
	Stopwatch() func() float64
}

// Wall measures real elapsed time. This package is the single sanctioned
// home of the wall clock for the simulation stack; see the package comment.
type Wall struct{}

// Stopwatch implements Clock with time.Now/time.Since.
func (Wall) Stopwatch() func() float64 {
	t0 := time.Now()
	return func() float64 { return time.Since(t0).Seconds() }
}

// Fixed is a deterministic Clock: every stopwatch interval reports exactly
// PerCall seconds (zero value: all intervals are free). It replaces Wall
// whenever a run must be bit-reproducible including its overhead statistics.
type Fixed struct {
	// PerCall is the constant number of seconds charged per interval.
	PerCall float64
}

// Stopwatch implements Clock.
func (f Fixed) Stopwatch() func() float64 {
	return func() float64 { return f.PerCall }
}

// Deadline returns the wall-clock instant d from now, for socket deadlines.
// The TCP runtime executes under internal/core's round driver, so the
// wall-clock reads it makes — this and its Wall stopwatches — go through
// this package like everyone else's.
func Deadline(d time.Duration) time.Time { return time.Now().Add(d) }
