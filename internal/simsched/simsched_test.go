package simsched

import (
	"math/rand"
	"sort"
	"testing"
)

// TestPopOrdersByTime checks the basic min-heap contract: events pop in
// non-decreasing timestamp order regardless of push order.
func TestPopOrdersByTime(t *testing.T) {
	s := New(4)
	times := []float64{5, 1, 4, 1.5, 3, 2, 0.5}
	for i, ti := range times {
		s.Push(ti, KindWorkerDone, int64(i))
	}
	if s.Len() != len(times) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(times))
	}
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	for i, want := range sorted {
		e, ok := s.Pop()
		if !ok {
			t.Fatalf("pop %d: empty", i)
		}
		if e.Time != want {
			t.Fatalf("pop %d: time %v, want %v", i, e.Time, want)
		}
		if s.Now() != want {
			t.Fatalf("pop %d: Now() = %v, want %v", i, s.Now(), want)
		}
	}
	if _, ok := s.Pop(); ok {
		t.Fatal("pop on empty scheduler returned an event")
	}
}

// TestFIFOTieBreak pins the determinism contract: events with equal
// timestamps pop in push order, even interleaved with other times.
func TestFIFOTieBreak(t *testing.T) {
	s := New(2)
	s.Push(1, KindWorkerDone, 10)
	s.Push(2, KindRoundClose, 0)
	s.Push(1, KindWorkerDone, 11)
	s.Push(1, KindWorkerDone, 12)
	s.Push(0.5, KindEval, 99)
	wantIDs := []int64{99, 10, 11, 12, 0}
	for i, want := range wantIDs {
		e, ok := s.Pop()
		if !ok {
			t.Fatalf("pop %d: empty", i)
		}
		if e.ID != want {
			t.Fatalf("pop %d: ID %d, want %d (FIFO tie-break violated)", i, e.ID, want)
		}
	}
}

// TestArrivalBeforeDeadlineOnTie mirrors the engine's round-close idiom: a
// worker arriving exactly at the deadline was pushed before the deadline
// event, so it must pop first (the inclusive <= participant rule).
func TestArrivalBeforeDeadlineOnTie(t *testing.T) {
	s := New(2)
	s.Push(10, KindWorkerDone, 3)
	s.Push(10, KindRoundClose, 1)
	e, _ := s.Pop()
	if e.Kind != KindWorkerDone {
		t.Fatalf("first pop kind %d, want worker-done before round-close on equal time", e.Kind)
	}
	e, _ = s.Pop()
	if e.Kind != KindRoundClose {
		t.Fatalf("second pop kind %d, want round-close", e.Kind)
	}
}

// TestDeterministicUnderRandomLoad replays a random push/pop schedule twice
// and requires identical pop sequences — the property the parallel engine
// leans on.
func TestDeterministicUnderRandomLoad(t *testing.T) {
	run := func(seed int64) []Event {
		rng := rand.New(rand.NewSource(seed))
		s := New(1)
		var popped []Event
		for op := 0; op < 5000; op++ {
			if rng.Intn(3) > 0 || s.Len() == 0 {
				// Coarse timestamps force many ties.
				s.Push(float64(rng.Intn(16)), Kind(1+rng.Intn(4)), int64(op))
			} else if e, ok := s.Pop(); ok {
				popped = append(popped, e)
			}
		}
		for {
			e, ok := s.Pop()
			if !ok {
				break
			}
			popped = append(popped, e)
		}
		return popped
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("pop counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pop %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// And the heap invariant held throughout: output is time-sorted per
	// drain segment; check globally on a fully-drained run.
	s := New(1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		s.Push(rng.Float64()*100, KindWorkerDone, int64(i))
	}
	prev := -1.0
	for {
		e, ok := s.Pop()
		if !ok {
			break
		}
		if e.Time < prev {
			t.Fatalf("heap order violated: %v after %v", e.Time, prev)
		}
		prev = e.Time
	}
}

// TestAdvanceAndPastEvents covers the engine's idle-round hop and the
// outage-window case where an event is pushed with a timestamp already in
// the virtual past.
func TestAdvanceAndPastEvents(t *testing.T) {
	s := New(1)
	s.Advance(50)
	if s.Now() != 50 {
		t.Fatalf("Now after Advance = %v", s.Now())
	}
	s.Advance(10) // never backwards
	if s.Now() != 50 {
		t.Fatalf("Advance moved time backwards to %v", s.Now())
	}
	s.Push(20, KindOutageStart, 0)
	s.Push(60, KindOutageEnd, 0)
	e, _ := s.Pop()
	if e.Kind != KindOutageStart {
		t.Fatalf("past event did not pop first")
	}
	if s.Now() != 50 {
		t.Fatalf("popping a past event rewound time to %v", s.Now())
	}
	e, _ = s.Pop()
	if e.Kind != KindOutageEnd || s.Now() != 60 {
		t.Fatalf("future event pop: kind %d now %v", e.Kind, s.Now())
	}
	if s.Processed() != 2 {
		t.Fatalf("Processed = %d, want 2", s.Processed())
	}
}

// TestSteadyStatePushPopAllocFree confirms the hot path stays off the
// allocator once the backing array has grown to the working-set size (it is
// the scheduler's row of the allocation table).
func TestSteadyStatePushPopAllocFree(t *testing.T) {
	s := New(64)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			s.Push(float64(i), KindWorkerDone, int64(i))
		}
		for i := 0; i < 32; i++ {
			if _, ok := s.Pop(); !ok {
				t.Fatal("unexpected empty")
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times per round", allocs)
	}
}

// BenchmarkPushPop measures raw scheduler throughput: one push plus one
// pop per iteration against a warm 1k-event queue.
func BenchmarkPushPop(b *testing.B) {
	s := New(2048)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		s.Push(rng.Float64()*1e6, KindWorkerDone, int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, _ := s.Pop()
		s.Push(e.Time+rng.Float64()*1000, KindWorkerDone, e.ID)
	}
}
