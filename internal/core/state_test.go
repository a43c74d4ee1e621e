package core

import (
	"math"
	"testing"

	"fedmp/internal/nn"
)

// TestRunFromResumesTrajectory pins the resume contract: a run checkpointed
// at round K and resumed to round R continues the same timeline (round
// numbers, virtual clock, loss baseline) and lands within tolerance of an
// uninterrupted R-round run.
func TestRunFromResumesTrajectory(t *testing.T) {
	fam := tinyFamily()
	full := quickCfg(StrategyFedMP, 10)
	full.LocalIters = 4

	base, err := Run(fam, full)
	if err != nil {
		t.Fatal(err)
	}

	partCfg := full
	partCfg.Rounds = 5
	part, err := Run(fam, partCfg)
	if err != nil {
		t.Fatal(err)
	}
	st := part.State
	if st == nil {
		t.Fatal("synchronous run returned no resume state")
	}
	if st.Round != 5 {
		t.Fatalf("state at round %d, want 5", st.Round)
	}
	if len(st.Workers) != full.Workers {
		t.Fatalf("state carries %d worker entries for %d workers", len(st.Workers), full.Workers)
	}
	for _, w := range st.Workers {
		if w.Bandit == nil {
			t.Fatalf("state carries no bandit state for worker %d", w.Slot)
		}
	}

	resumed, err := RunFrom(fam, full, st)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Rounds != 10 {
		t.Fatalf("resumed run finished at round %d, want 10", resumed.Rounds)
	}

	// The resumed trajectory's baseline point re-evaluates the restored
	// model at the checkpoint round: same weights, same eval net, so the
	// metrics must agree exactly with the original run's round-5 point.
	first := resumed.Points[0]
	last := part.Points[len(part.Points)-1]
	if first.Round != 5 {
		t.Fatalf("resumed baseline at round %d, want 5", first.Round)
	}
	if first.Acc != last.Acc || first.Loss != last.Loss {
		t.Errorf("resumed baseline (%v, %v) differs from checkpointed eval (%v, %v)",
			first.Loss, first.Acc, last.Loss, last.Acc)
	}
	// The virtual clock continues the original timeline.
	if math.Abs(first.Time-part.Time) > 1e-9 {
		t.Errorf("resumed clock starts at %v, checkpoint closed at %v", first.Time, part.Time)
	}
	for i := 1; i < len(resumed.Points); i++ {
		if resumed.Points[i].Round != 5+i {
			t.Fatalf("resumed point %d at round %d, want %d", i, resumed.Points[i].Round, 5+i)
		}
		if resumed.Points[i].Time <= resumed.Points[i-1].Time {
			t.Errorf("resumed time not increasing at point %d", i)
		}
	}

	// Convergence quality matches the uninterrupted baseline. The RNG
	// streams diverge at the restart (fresh engine, original streams had
	// advanced), so exact equality is not expected — but on this easy task
	// both runs must land in the same place.
	if diff := math.Abs(resumed.FinalAcc - base.FinalAcc); diff > 0.15 {
		t.Errorf("resumed final accuracy %v vs uninterrupted %v (diff %v)",
			resumed.FinalAcc, base.FinalAcc, diff)
	}
	if resumed.FinalAcc < part.FinalAcc-0.05 {
		t.Errorf("resumed run regressed: %v after 10 rounds vs %v at the checkpoint",
			resumed.FinalAcc, part.FinalAcc)
	}
}

// TestRunFromValidation pins the rejection paths: async runs, nil and
// malformed states, exhausted budgets and mismatched models all error out
// before any training happens.
func TestRunFromValidation(t *testing.T) {
	fam := tinyFamily()
	cfg := quickCfg(StrategyFedMP, 4)
	res, err := Run(fam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.State

	async := quickCfg(StrategyFedMP, 8)
	async.Async = true
	async.AsyncM = 2
	if _, err := RunFrom(fam, async, st); err == nil {
		t.Error("async resume accepted")
	}
	if _, err := RunFrom(fam, quickCfg(StrategyFedMP, 8), nil); err == nil {
		t.Error("nil state accepted")
	}
	// Budget already exhausted at the checkpoint round.
	if _, err := RunFrom(fam, quickCfg(StrategyFedMP, 4), st); err == nil {
		t.Error("resume at the round budget accepted")
	}
	// Tensor count mismatch.
	bad := *st
	bad.Global = st.Global[:len(st.Global)-1]
	if _, err := RunFrom(fam, quickCfg(StrategyFedMP, 8), &bad); err == nil {
		t.Error("truncated global model accepted")
	}
	// Worker-count mismatch in the per-worker slices.
	bad = *st
	bad.PrevTimes = []float64{1}
	if _, err := RunFrom(fam, quickCfg(StrategyFedMP, 8), &bad); err == nil {
		t.Error("worker-count mismatch accepted")
	}
	// Bandit state incompatible with the strategy (SynFL has no bandits).
	if _, err := RunFrom(fam, quickCfg(StrategySynFL, 8), st); err == nil {
		t.Error("bandit state accepted by bandit-free strategy")
	}
}

// TestExportStateIsACopy verifies the returned snapshot does not alias the
// engine's tensors.
func TestExportStateIsACopy(t *testing.T) {
	fam := tinyFamily()
	res, err := Run(fam, quickCfg(StrategyFedMP, 2))
	if err != nil {
		t.Fatal(err)
	}
	st := res.State
	sum := func() float64 {
		var s float64
		for _, p := range res.Points {
			s += p.Acc
		}
		return s
	}
	before := sum()
	for _, g := range st.Global {
		for i := range g.Data {
			g.Data[i] = 99
		}
	}
	if sum() != before {
		t.Error("mutating the exported state changed the result")
	}
	// Resuming from the mutilated state still validates shapes (it only
	// checks structure, not values) — but a second, clean run's state must
	// be unaffected by this one.
	res2, err := Run(fam, quickCfg(StrategyFedMP, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res2.State.Global {
		for _, v := range g.Data {
			if v == 99 {
				t.Fatal("state aliasing across runs")
			}
		}
	}
}

// TestAsyncRunExportsState pins what Alg. 2 inherits from the one Drive: an
// asynchronous run closes with a State like any other — the model the last
// evaluation measured, the ledger, every worker's ratio policy as of its
// last Observe (pulls still in flight left out) — and RunFrom still refuses
// to resume it, because the in-flight assignments are not part of State.
func TestAsyncRunExportsState(t *testing.T) {
	fam := tinyFamily()
	cfg := quickCfg(StrategyFedMP, 6)
	cfg.Async, cfg.AsyncM = true, 2
	res, err := Run(fam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.State
	if st == nil {
		t.Fatal("asynchronous run returned no State")
	}
	if st.Round != 6 || math.Float64bits(st.RoundSum) != math.Float64bits(res.Time) {
		t.Errorf("state at round %d, round sum %v; want 6 and the run's %v", st.Round, st.RoundSum, res.Time)
	}
	net, err := fam.BuildNet(fam.FullDesc(), cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	nn.SetWeights(net, st.Global)
	if loss, acc := EvalChunked(net, fam.TestBatch(cfg.EvalLimit), 64); loss != res.FinalLoss || acc != res.FinalAcc {
		t.Errorf("state model evaluates to (%v, %v), the run closed on (%v, %v)", loss, acc, res.FinalLoss, res.FinalAcc)
	}
	if len(st.Workers) != cfg.Workers {
		t.Fatalf("state carries %d worker entries for %d workers", len(st.Workers), cfg.Workers)
	}
	reported, observed := 0, 0
	for _, w := range st.Workers {
		if w.Bandit == nil {
			t.Fatalf("state carries no bandit state for worker %d", w.Slot)
		}
		observed += w.Bandit.Round
		if st.PrevTimes[w.Slot] > 0 {
			reported++
		}
	}
	// Twelve results were aggregated; the four of the initial dispatch were
	// warm-up and taught the bandits nothing.
	if reported == 0 || observed != 6*2-4 {
		t.Errorf("ledger has times for %d workers and %d bandit observations; want some and 8", reported, observed)
	}
	cfg.Rounds = 12
	if _, err := RunFrom(fam, cfg, st); err == nil {
		t.Error("RunFrom resumed an asynchronous run")
	}
}
