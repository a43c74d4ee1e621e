package core

import (
	"testing"

	"fedmp/internal/cluster"
)

// TestSyncRunWithInjectedFaults drives the synchronous engine under crash,
// straggler and blackout injection and verifies the run completes while
// recording nonempty dropped/suspect participation.
func TestSyncRunWithInjectedFaults(t *testing.T) {
	fam := tinyFamily()
	cfg := quickCfg(StrategySynFL, 8)
	cfg.Faults = cluster.FaultConfig{
		CrashProb:     0.25,
		DownRounds:    2,
		StragglerProb: 0.2,
		BlackoutProb:  0.1,
		Seed:          13,
	}
	res, err := Run(fam, cfg)
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if res.Rounds != 8 {
		t.Errorf("completed %d rounds, want 8", res.Rounds)
	}
	var dropped, suspect, participants int
	for _, st := range res.Stats {
		dropped += st.Dropped
		suspect += st.Suspect
		participants += st.Participants
		if st.Participants+st.Dropped+st.Suspect > cfg.Workers {
			t.Errorf("round %d: %d participants + %d dropped + %d suspect exceed %d workers",
				st.Round, st.Participants, st.Dropped, st.Suspect, cfg.Workers)
		}
	}
	if dropped == 0 {
		t.Error("no assignment was ever dropped under 25% crash injection")
	}
	if suspect == 0 {
		t.Error("no device was ever suspect despite multi-round crash recovery")
	}
	if participants == 0 {
		t.Error("no results were ever aggregated")
	}
}

// TestFedMPRunWithInjectedFaults checks the full FedMP strategy (bandit
// bookkeeping for dropped workers) tolerates injected churn.
func TestFedMPRunWithInjectedFaults(t *testing.T) {
	fam := tinyFamily()
	cfg := quickCfg(StrategyFedMP, 6)
	cfg.Faults = cluster.FaultConfig{CrashProb: 0.3, DownRounds: 2, Seed: 7}
	res, err := Run(fam, cfg)
	if err != nil {
		t.Fatalf("faulted FedMP run: %v", err)
	}
	if res.Rounds != 6 {
		t.Errorf("completed %d rounds, want 6", res.Rounds)
	}
	if res.FinalAcc <= 0 {
		t.Error("zero accuracy after faulted FedMP training")
	}
}

// TestAsyncRunWithInjectedFaults drives Algorithm 2 under injection: lost
// dispatches must surface as dropped assignments and their workers must
// re-enter the cycle (the run keeps completing rounds).
func TestAsyncRunWithInjectedFaults(t *testing.T) {
	fam := tinyFamily()
	cfg := quickCfg(StrategyFedMP, 8)
	cfg.Async = true
	cfg.AsyncM = 2
	cfg.Faults = cluster.FaultConfig{CrashProb: 0.3, DownRounds: 2, StragglerProb: 0.2, Seed: 21}
	res, err := Run(fam, cfg)
	if err != nil {
		t.Fatalf("faulted async run: %v", err)
	}
	if res.Rounds != 8 {
		t.Errorf("completed %d rounds, want 8", res.Rounds)
	}
	var dropped int
	for _, st := range res.Stats {
		dropped += st.Dropped
	}
	if dropped == 0 {
		t.Error("async injection never dropped an in-flight dispatch")
	}
}

// TestInjectedFaultsChangeNothingWhenDisabled pins the zero-value Faults
// config to the exact pre-injection behaviour.
func TestInjectedFaultsChangeNothingWhenDisabled(t *testing.T) {
	fam := tinyFamily()
	base, err := Run(fam, quickCfg(StrategySynFL, 3))
	if err != nil {
		t.Fatal(err)
	}
	withZero := quickCfg(StrategySynFL, 3)
	withZero.Faults = cluster.FaultConfig{}
	again, err := Run(fam, withZero)
	if err != nil {
		t.Fatal(err)
	}
	if base.FinalLoss != again.FinalLoss || base.FinalAcc != again.FinalAcc {
		t.Errorf("zero-value fault config changed the run: %v/%v vs %v/%v",
			base.FinalLoss, base.FinalAcc, again.FinalLoss, again.FinalAcc)
	}
	for i, st := range again.Stats {
		if st.Suspect != 0 {
			t.Errorf("round %d suspect %d without injection", i+1, st.Suspect)
		}
		if st.Participants == 0 {
			t.Errorf("round %d had no participants without injection", i+1)
		}
	}
}

// TestUPFLHoldsItsPullThroughUnrewardedRounds is the reproducer for a
// double-Select panic: UP-FL's one shared agent selected a fresh ratio every
// dispatch, but a round that delivers nothing (everyone blacked out) or only
// warm-up arrivals (Alg. 2 with m below the worker count) observes no reward.
// The pull now stands until a reward settles it.
func TestUPFLHoldsItsPullThroughUnrewardedRounds(t *testing.T) {
	fam := tinyFamily()
	dark := quickCfg(StrategyUPFL, 8)
	dark.Workers = 3
	dark.Faults = cluster.FaultConfig{Seed: 5, BlackoutProb: 0.9}
	partial := quickCfg(StrategyUPFL, 8)
	partial.Async, partial.AsyncM = true, 1
	for name, cfg := range map[string]Config{"sync all lost": dark, "async m=1": partial} {
		res, err := Run(fam, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Rounds != 8 {
			t.Errorf("%s: completed %d rounds, want 8", name, res.Rounds)
		}
	}
}
