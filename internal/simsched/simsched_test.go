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
	}
	if _, ok := s.Pop(); ok {
		t.Fatal("pop on empty scheduler returned an event")
	}
	if s.Processed() != uint64(len(times)) {
		t.Fatalf("Processed = %d, want %d", s.Processed(), len(times))
	}
}

// TestFIFOTieBreak pins the determinism contract: events with equal
// timestamps pop in push order, even interleaved with other times — so the
// asynchronous engine's simultaneous arrivals surface in dispatch order.
func TestFIFOTieBreak(t *testing.T) {
	s := New(2)
	s.Push(1, KindWorkerDone, 10)
	s.Push(2, KindWorkerDone, 13)
	s.Push(1, KindWorkerDone, 11)
	s.Push(1, KindWorkerDone, 12)
	s.Push(0.5, KindWorkerDone, 9)
	wantIDs := []int64{9, 10, 11, 12, 13}
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

// TestArrivalBeforeDeadlineOnTie pins that ties break on push order, not on
// the ID payload: an arrival pushed before another event at the same instant
// (a caller's deadline marker, or a later dispatch) pops first even when its
// ID is larger — the inclusive <= rule for a result landing on a cut-off.
func TestArrivalBeforeDeadlineOnTie(t *testing.T) {
	s := New(2)
	s.Push(10, KindWorkerDone, 3)
	s.Push(10, KindWorkerDone, 1)
	e, _ := s.Pop()
	if e.ID != 3 {
		t.Fatalf("first pop ID %d, want 3: the earlier push on an equal time", e.ID)
	}
	e, _ = s.Pop()
	if e.ID != 1 {
		t.Fatalf("second pop ID %d, want 1", e.ID)
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
				s.Push(float64(rng.Intn(16)), KindWorkerDone, int64(op))
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
