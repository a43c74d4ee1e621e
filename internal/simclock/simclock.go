// Package simclock abstracts elapsed-time measurement so the deterministic
// simulation layers (internal/core, internal/cluster, internal/bandit,
// internal/experiment) never touch the wall clock directly. Those packages
// are banned from calling time.Now/time.Since/time.Sleep by the
// wallclock rule (internal/lint); any overhead accounting they do flows
// through a Clock threaded in from the composition root instead.
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

// Clock produces stopwatches for overhead accounting. A stopwatch is a
// value, not a closure, so taking one allocates nothing.
type Clock interface {
	// Stopwatch starts an interval measurement.
	Stopwatch() Start
	// Since reports the seconds elapsed since the Stopwatch call that
	// returned start.
	Since(start Start) float64
}

// Start is a stopwatch's start, read by Clock.Since.
type Start struct{ at time.Time }

// Wall measures real elapsed time. This package is the single sanctioned
// home of the wall clock for the simulation stack; see the package comment.
type Wall struct{}

// Stopwatch implements Clock with time.Now.
func (Wall) Stopwatch() Start { return Start{time.Now()} }

// Since implements Clock with time.Since.
func (Wall) Since(start Start) float64 { return time.Since(start.at).Seconds() }

// Fixed is a deterministic Clock: every stopwatch interval reports exactly
// PerCall seconds (zero value: all intervals are free). It replaces Wall
// whenever a run must be bit-reproducible including its overhead statistics.
type Fixed struct {
	// PerCall is the constant number of seconds charged per interval.
	PerCall float64
}

// Stopwatch implements Clock.
func (Fixed) Stopwatch() Start { return Start{} }

// Since implements Clock.
func (f Fixed) Since(Start) float64 { return f.PerCall }

// Deadline returns the wall-clock instant d from now, for socket deadlines.
// The TCP runtime executes under internal/core's round driver, so the
// wall-clock reads it makes — this and its Wall stopwatches — go through
// this package like everyone else's.
func Deadline(d time.Duration) time.Time { return time.Now().Add(d) }
