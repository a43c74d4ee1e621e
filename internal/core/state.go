package core

import (
	"fmt"
	"slices"

	"fedmp/internal/bandit"
	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/transport/codec"
)

// State is a run's complete resumable state at the close of a round: the
// aggregated global model plus the scalar and per-worker bookkeeping the
// strategies read through RoundInfo, and one Workers entry per slot carrying
// the last ratio and the pruning-ratio policy state. A run resumed from it
// continues at Round+1 exactly where the original left off — same global
// weights, same loss baseline for the Eq. 8 rewards, same bandit statistics.
// It is the codec's durability payload: the TCP runtime persists it as its
// checkpoint record (adding the workers' identities), the simulation engine
// returns it as Result.State for restart experiments.
type State = codec.Snapshot

// BanditPersistent is implemented by strategies whose per-worker ratio
// policies survive a restart. Strategies without durable policy state simply
// don't implement it; their checkpoints carry no bandit payload.
type BanditPersistent interface {
	// ExportBandits snapshots every worker's policy (nil entries for
	// policies that keep no state).
	ExportBandits() []*bandit.State
	// RestoreBandits loads previously exported policy states. A nil or
	// empty slice is a no-op; a length mismatch or incompatible state is
	// an error and leaves the strategy unchanged.
	RestoreBandits(sts []*bandit.State) error
}

// borrow assembles the resumable state as a view over the driver's live
// model and slices (see Executor.Closed): nothing but the bandit states is
// copied, and the next call overwrites the same State.
func (d *Driver) borrow() *State {
	s := &d.view
	s.Round = d.res.Rounds
	s.Global = d.global
	s.PrevLoss = d.prevLoss
	s.RoundSum = d.roundSum
	s.PrevTimes = d.prevTimes
	s.PrevComm = d.prevComm
	var bandits []*bandit.State
	if bp, ok := d.strategy.(BanditPersistent); ok {
		bandits = bp.ExportBandits()
	}
	s.Workers = slices.Grow(s.Workers[:0], d.cfg.Workers)[:d.cfg.Workers]
	for slot := range s.Workers {
		s.Workers[slot] = codec.WorkerState{Slot: slot, Ratio: d.lastRatio[slot]}
		if slot < len(bandits) {
			s.Workers[slot].Bandit = bandits[slot]
		}
	}
	return s
}

// export is borrow deep-copied: the caller may keep the State across
// further mutation of the driver (or hand it to a goroutine) without
// aliasing.
func (d *Driver) export() *State {
	s := *d.borrow()
	s.Global = nn.CloneWeights(s.Global)
	s.PrevTimes = slices.Clone(s.PrevTimes)
	s.PrevComm = slices.Clone(s.PrevComm)
	s.Workers = slices.Clone(s.Workers)
	return &s
}

// Restore injects a snapshot into a freshly built driver so that Drive
// continues at s.Round+1. The snapshot is validated against the run's
// configuration and model family before anything is touched — it may come
// from a checkpoint directory written under another configuration — and is
// copied, never aliased.
func (d *Driver) Restore(s *State) error {
	if s == nil {
		return fmt.Errorf("core: nil resume state")
	}
	if s.Round < 1 {
		return fmt.Errorf("core: resume state at round %d, want >= 1", s.Round)
	}
	if d.cfg.Rounds > 0 && s.Round >= d.cfg.Rounds {
		return fmt.Errorf("core: resume state already at round %d of a %d-round budget; nothing to resume",
			s.Round, d.cfg.Rounds)
	}
	if len(s.Global) != len(d.global) {
		return fmt.Errorf("core: resume state has %d global tensors, model has %d",
			len(s.Global), len(d.global))
	}
	for i, t := range s.Global {
		if t == nil {
			return fmt.Errorf("core: resume state global tensor %d is nil", i)
		}
		if !tensor.SameShape(t, d.global[i]) {
			return fmt.Errorf("core: resume state tensor %d has shape %v, model wants %v",
				i, t.Shape, d.global[i].Shape)
		}
	}
	n := d.cfg.Workers
	if len(s.PrevTimes) != n || len(s.PrevComm) != n {
		return fmt.Errorf("core: resume state tracks %d/%d workers, run has %d",
			len(s.PrevTimes), len(s.PrevComm), n)
	}
	bandits := make([]*bandit.State, n)
	found := false
	for _, w := range s.Workers {
		if w.Slot < 0 || w.Slot >= n {
			return fmt.Errorf("core: resume state worker slot %d outside 0..%d (was the run restarted with fewer workers?)",
				w.Slot, n-1)
		}
		if w.Bandit != nil {
			bandits[w.Slot] = w.Bandit
			found = true
		}
	}
	if found {
		bp, ok := d.strategy.(BanditPersistent)
		if !ok {
			return fmt.Errorf("core: resume state carries bandit state but strategy %s keeps none",
				d.strategy.Name())
		}
		if err := bp.RestoreBandits(bandits); err != nil {
			return err
		}
	}
	d.global = nn.CloneWeights(s.Global)
	d.prevLoss = s.PrevLoss
	d.roundSum = s.RoundSum
	d.roundCnt = s.Round
	d.res.Rounds = s.Round
	copy(d.prevTimes, s.PrevTimes)
	copy(d.prevComm, s.PrevComm)
	for _, w := range s.Workers {
		d.lastRatio[w.Slot] = w.Ratio
	}
	return nil
}

// RunFrom resumes a synchronous run from a previously exported State: the
// engine is rebuilt exactly as Run builds it (same strategy, sources and
// device scenario for the same Config), the snapshot is injected, and rounds
// continue from st.Round+1 until the configured budget. The returned Result
// covers only the resumed portion — its Points start with a re-evaluation at
// st.Round, which must match the original run's evaluation at that round —
// but round numbers and the virtual clock continue the original timeline, so
// trajectories from the two segments concatenate cleanly.
func RunFrom(fam Family, cfg Config, st *State) (*Result, error) {
	r, err := newRunner(fam, cfg)
	if err != nil {
		return nil, err
	}
	if r.cfg.Async {
		// The assignments in flight at the close of an Alg. 2 round are not
		// part of State.
		return nil, fmt.Errorf("core: RunFrom supports synchronous runs only")
	}
	if err := r.Restore(st); err != nil {
		return nil, err
	}
	// In a synchronous run the virtual clock and the round-time accumulator
	// advance in lockstep.
	r.now = st.RoundSum
	return r.run()
}
