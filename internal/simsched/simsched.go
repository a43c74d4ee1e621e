// Package simsched is the event-driven virtual-time scheduler behind the
// simulation engine. A binary min-heap of timestamped events — worker
// completions, round-close deadlines, eval ticks, churn transitions —
// drives virtual time forward, so a round costs O(events in the round)
// instead of O(population). Events with equal timestamps pop in FIFO
// order (a monotonic sequence number breaks ties), which keeps the engine
// deterministic: the pop order is a pure function of the push order, never
// of heap internals.
//
// The scheduler is deliberately tiny and non-generic: an Event carries a
// kind tag and one int64 payload slot; callers keep richer payloads in a
// side slice indexed by that ID. It holds no wall-clock state and draws no
// randomness — virtual time only advances when events pop or the caller
// calls Advance.
package simsched

// Kind tags what an event means to the engine.
type Kind uint8

// Event kinds. The scheduler itself treats them opaquely; they exist so a
// drain loop can dispatch without a side table.
const (
	// KindNone is the zero Kind; no real event carries it.
	KindNone Kind = iota
	// KindWorkerDone marks a worker's result arriving at the PS. ID is the
	// caller's index for the in-flight computation.
	KindWorkerDone
	// KindRoundClose marks a round's deadline expiring. ID is the round.
	KindRoundClose
	// KindEval marks a scheduled evaluation of the global model. ID is the
	// round the evaluation reports under.
	KindEval
	// KindOutageStart marks a regional outage beginning. ID is the region.
	KindOutageStart
	// KindOutageEnd marks a regional outage lifting. ID is the region.
	KindOutageEnd
	// KindArrive marks a device joining the population. ID is the device.
	KindArrive
	// KindDepart marks a device leaving the population. ID is the device.
	KindDepart
)

// Event is one timestamped occurrence. Time is virtual seconds; ID is an
// opaque payload slot owned by the caller (worker index, round number,
// region index — whatever the Kind implies).
type Event struct {
	Time float64
	Kind Kind
	ID   int64

	// seq is the push order, the FIFO tie-break for equal timestamps.
	seq uint64
}

// before reports whether a pops strictly ahead of b: earlier time first,
// push order on ties. Written with < only so no float equality appears.
func (e Event) before(o Event) bool {
	if e.Time < o.Time {
		return true
	}
	if o.Time < e.Time {
		return false
	}
	return e.seq < o.seq
}

// Scheduler is a deterministic event queue over virtual time. The zero
// value is not ready; use New. Not safe for concurrent use — the engine
// parallelises training, not event dispatch.
type Scheduler struct {
	now       float64
	seq       uint64
	processed uint64
	ev        []Event
}

// New returns a scheduler with capacity for at least capacity queued
// events before the first regrowth.
func New(capacity int) *Scheduler {
	if capacity < 1 {
		capacity = 1
	}
	return &Scheduler{ev: make([]Event, 0, capacity)}
}

// Now returns the current virtual time: the maximum of every popped event
// timestamp and every Advance call so far.
func (s *Scheduler) Now() float64 { return s.now }

// Len returns the number of queued events.
func (s *Scheduler) Len() int { return len(s.ev) }

// Processed returns how many events have been popped over the scheduler's
// lifetime — the engine's events/sec numerator.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Advance moves virtual time forward to t without dispatching anything.
// The engine uses it when a round's duration is decided analytically (the
// idle-round fallback). Time never moves backwards.
func (s *Scheduler) Advance(t float64) {
	if t > s.now {
		s.now = t
	}
}

// Push queues an event. Events may carry timestamps in the virtual past
// (an outage window opened before the PS looked); they simply pop first.
func (s *Scheduler) Push(t float64, k Kind, id int64) {
	e := Event{Time: t, Kind: k, ID: id, seq: s.seq}
	s.seq++
	if !s.push(e) {
		s.grow()
		s.push(e)
	}
}

// Pop removes and returns the earliest event, advancing virtual time to
// its timestamp. ok is false when the queue is empty.
func (s *Scheduler) Pop() (e Event, ok bool) {
	n := len(s.ev)
	if n == 0 {
		return Event{}, false
	}
	e = s.ev[0]
	s.ev[0] = s.ev[n-1]
	s.ev[n-1] = Event{}
	s.ev = s.ev[:n-1]
	s.siftDown(0)
	if e.Time > s.now {
		s.now = e.Time
	}
	s.processed++
	return e, true
}

// Peek returns the earliest event without removing it.
func (s *Scheduler) Peek() (e Event, ok bool) {
	if len(s.ev) == 0 {
		return Event{}, false
	}
	return s.ev[0], true
}

// push inserts within the current capacity, reporting false when full.
// The hot path: steady-state rounds reuse the backing array with zero
// allocations.
func (s *Scheduler) push(e Event) bool {
	n := len(s.ev)
	if n >= cap(s.ev) {
		return false
	}
	s.ev = s.ev[:n+1]
	s.ev[n] = e
	s.siftUp(n)
	return true
}

// grow doubles the backing array; the only allocating path.
func (s *Scheduler) grow() {
	next := make([]Event, len(s.ev), 2*cap(s.ev))
	copy(next, s.ev)
	s.ev = next
}

// siftUp restores the heap property from leaf i upward.
func (s *Scheduler) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.ev[i].before(s.ev[parent]) {
			return
		}
		s.ev[i], s.ev[parent] = s.ev[parent], s.ev[i]
		i = parent
	}
}

// siftDown restores the heap property from root i downward.
func (s *Scheduler) siftDown(i int) {
	n := len(s.ev)
	for {
		least := i
		if l := 2*i + 1; l < n && s.ev[l].before(s.ev[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && s.ev[r].before(s.ev[least]) {
			least = r
		}
		if least == i {
			return
		}
		s.ev[i], s.ev[least] = s.ev[least], s.ev[i]
		i = least
	}
}
