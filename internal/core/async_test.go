package core

import (
	"testing"

	"fedmp/internal/simsched"
)

func TestAsyncCompletionOrdering(t *testing.T) {
	// Async in-flight completions live on the shared scheduler; they must
	// surface in finish-time order with slot IDs intact.
	s := simsched.New(0)
	finishes := []float64{5, 1, 9, 3, 7}
	for slot, f := range finishes {
		s.Push(f, simsched.KindWorkerDone, int64(slot))
	}
	want := []float64{1, 3, 5, 7, 9}
	wantSlot := []int64{1, 3, 0, 4, 2}
	for i := range want {
		ev, ok := s.Pop()
		if !ok || ev.Time != want[i] || ev.ID != wantSlot[i] {
			t.Fatalf("pop %d = (%v, slot %d, ok %v), want (%v, slot %d)",
				i, ev.Time, ev.ID, ok, want[i], wantSlot[i])
		}
	}
}

func TestAsyncStaleResidualsAreUsed(t *testing.T) {
	// In the async engine a worker's residual is fixed at dispatch time (the
	// assignment references the global it was cut from);
	// aggregating it later must still reproduce the dispatched global when
	// the worker returns untrained weights, even though the server's global
	// has moved on. This is the Alg. 2 semantics ("recovering and
	// aggregating the m first-arrival local models").
	fam := tinyFamily()
	cfg := normalizedCfg(t, quickCfg(StrategyFedMP, 3))
	s, err := NewStrategy(fam, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	infoOld := fixtureInfo(t, fam, 1, cfg.Workers)
	asg, err := s.Assign(infoOld, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	out := Output{Assignment: asg[0], NewWeights: asg[0].Weights, TrainLoss: 1, Total: 1}

	// The server's global moves on before aggregation.
	infoNew := fixtureInfo(t, fam, 2, cfg.Workers)
	infoNew.Global = fam.InitWeights(99)
	newGlobal, err := s.Aggregate(infoNew, []Output{out}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With one untrained worker, rec + stale residual must equal the OLD
	// global (the dispatched model), not the new one.
	for i := range newGlobal {
		same := true
		for j := range newGlobal[i].Data {
			d := newGlobal[i].Data[j] - infoOld.Global[i].Data[j]
			if d > 1e-6 || d < -1e-6 {
				same = false
				break
			}
		}
		if !same {
			t.Fatalf("tensor %d: async aggregation did not reconstruct the dispatched global", i)
		}
	}
}

func TestAsyncMLargerThanInFlight(t *testing.T) {
	// AsyncM is clamped to the in-flight count, so m > live work still
	// progresses.
	fam := tinyFamily()
	cfg := quickCfg(StrategySynFL, 3)
	cfg.Async = true
	cfg.AsyncM = 4 // equals worker count: each round drains everything
	res, err := Run(fam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Errorf("rounds = %d", res.Rounds)
	}
}
