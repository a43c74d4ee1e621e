// Package simsched is the virtual-time event queue behind the simulator's
// asynchronous engine (Alg. 2): a binary min-heap of worker completions that
// pops the earliest first, so "the first m results to arrive" is exact.
// Events with equal timestamps pop in FIFO order (a monotonic sequence
// number breaks ties), which keeps the engine deterministic: the pop order is
// a pure function of the push order, never of heap internals.
//
// The scheduler is deliberately tiny and non-generic: an Event carries a
// kind tag and one int64 payload slot; callers keep richer payloads in a
// side slice indexed by that ID. It holds no clock and draws no randomness.
package simsched

// Kind tags what an event means to the caller.
type Kind uint8

// Event kinds. The scheduler itself treats them opaquely.
const (
	// KindNone is the zero Kind; no real event carries it.
	KindNone Kind = iota
	// KindWorkerDone marks a worker's result arriving at the PS. ID is the
	// caller's index for the in-flight computation.
	KindWorkerDone
)

// Event is one timestamped occurrence. Time is virtual seconds; ID is an
// opaque payload slot owned by the caller (a worker index for
// KindWorkerDone).
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

// Len returns the number of queued events.
func (s *Scheduler) Len() int { return len(s.ev) }

// Processed returns how many events have been popped over the scheduler's
// lifetime.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Push queues an event.
func (s *Scheduler) Push(t float64, k Kind, id int64) {
	e := Event{Time: t, Kind: k, ID: id, seq: s.seq}
	s.seq++
	if !s.push(e) {
		s.grow()
		s.push(e)
	}
}

// Pop removes and returns the earliest event. ok is false when the queue is
// empty.
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
	s.processed++
	return e, true
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
