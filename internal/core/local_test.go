package core

import (
	"reflect"
	"testing"

	"fedmp/internal/cluster"
	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/transport/codec"
)

// TestReceive pins the parameter server's half of the dense upload: the new
// weights are the assignment's plus the delta, formed in the delta without
// touching the assignment, and a delta that does not match the assignment is
// a protocol error, not a panic.
func TestReceive(t *testing.T) {
	base := []*tensor.Tensor{tensor.FromSlice([]float32{1, 2, 3, 4}, 4)}
	delta := []*tensor.Tensor{tensor.FromSlice([]float32{0.5, 0, -1, 2}, 4)}
	o := Output{Assignment: Assignment{Weights: base}}
	if err := o.Receive(&codec.Result{TrainLoss: 0.25, Delta: delta}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float32{1.5, 2, 2, 6} {
		if o.NewWeights[0].Data[i] != want {
			t.Errorf("reconstructed[%d] = %v, want %v", i, o.NewWeights[0].Data[i], want)
		}
	}
	if base[0].Data[0] != 1 {
		t.Error("Receive wrote the assignment's weights")
	}
	if o.TrainLoss != 0.25 || o.Update != nil {
		t.Errorf("loss %v, update %v; want 0.25 and none", o.TrainLoss, o.Update)
	}

	update := []*tensor.Tensor{tensor.New(4)}
	o = Output{Assignment: Assignment{Weights: base}}
	if err := o.Receive(&codec.Result{Update: update}); err != nil || o.NewWeights != nil || &o.Update[0] != &update[0] {
		t.Errorf("top-K result: err %v, new weights %v; want the update adopted as delivered", err, o.NewWeights)
	}

	for name, bad := range map[string][]*tensor.Tensor{
		"tensor-count mismatch":          {},
		"element-count mismatch":         {tensor.New(3)},
		"same count, different shape":    {tensor.New(2, 2)},
		"a good tensor and one too many": {tensor.New(4), tensor.New(4)},
	} {
		o := Output{Assignment: Assignment{Weights: base}}
		if err := o.Receive(&codec.Result{Delta: bad}); err == nil || o.NewWeights != nil {
			t.Errorf("%s accepted (err %v)", name, err)
		}
	}
}

// slotRecorder is a Strategy that keeps what its inner strategy assigned one
// slot and what came back from it, round by round.
type slotRecorder struct {
	Strategy
	slot     int
	onAssign func(round int)
	assigned []Assignment
	uploads  [][]*tensor.Tensor // nil for a round the slot's result missed
}

func (s *slotRecorder) Assign(info *RoundInfo, workers []int) ([]Assignment, error) {
	s.onAssign(info.Round)
	as, err := s.Strategy.Assign(info, workers)
	for _, a := range as {
		if a.Worker == s.slot {
			// The weights are the round's: once it closes they are the
			// slot's to rewrite (and poisonClosed fills a lost one).
			a.Weights = nn.CloneWeights(a.Weights)
			s.assigned = append(s.assigned, a)
		}
	}
	return as, err
}

func (s *slotRecorder) Aggregate(info *RoundInfo, outs []Output, dropped []Assignment) ([]*tensor.Tensor, error) {
	var upload []*tensor.Tensor
	for _, o := range outs {
		if o.Worker == s.slot {
			upload = o.Update
		}
	}
	s.uploads = append(s.uploads, upload)
	return s.Strategy.Aggregate(info, outs, dropped)
}

// TestFlexComLeftoverIsTheWorkers pins whose memory FlexCom's error feedback
// is. A worker whose upload misses the §V-A deadline cannot know it was
// dropped: it carries that round's compression error into its next selection,
// in the simulator as over TCP. Slot 1 is slow in round 2 only, misses it,
// and its round-3 upload is what WorkerStep produces over the three
// assignments with one leftover carried through all of them — not what it
// would produce had the dropped round's leftover been forgotten.
func TestFlexComLeftoverIsTheWorkers(t *testing.T) {
	const slot = 1
	fam := tinyFamily()
	cfg := quickCfg(StrategyFlexCom, 3)
	cfg.Scenario = cluster.Custom(cfg.Workers, 0, 0, 9)
	cfg.FaultTolerance, cfg.DeadlineQuantile = true, 0.5
	r, err := newRunner(fam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := r.devices[slot]
	fast := *dev
	rec := &slotRecorder{Strategy: r.strategy, slot: slot, onAssign: func(round int) {
		dev.Mode, dev.Distance = fast.Mode, fast.Distance
		if round == 2 {
			dev.Mode, dev.Distance = 3, cluster.Far
		}
	}}
	r.strategy = rec
	if _, err := r.run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.assigned) != 3 || rec.uploads[0] == nil || rec.uploads[1] != nil || rec.uploads[2] == nil {
		t.Fatalf("slot %d: %d assignments, uploads delivered %v/%v/%v; want 3 and a miss in round 2 only", slot,
			len(rec.assigned), rec.uploads[0] != nil, rec.uploads[1] != nil, rec.uploads[2] != nil)
	}

	// The same three assignments by hand, on the slot's own batches.
	third := func(forgetDropped bool) []*tensor.Tensor {
		srcs, err := fam.Sources(r.cfg.Workers, r.cfg.NonIID, r.cfg.BatchSize, r.cfg.Seed+17)
		if err != nil {
			t.Fatal(err)
		}
		local := NewLocalNet(fam, r.cfg.LR, r.cfg.Momentum, r.cfg.WeightDecay)
		var up Upload
		var res *codec.Result
		for i := range rec.assigned {
			kept := up
			if res, err = WorkerStep(local, srcs[slot], rec.assigned[i].Frame(i+1, false).Assign, r.cfg.Seed, &up); err != nil {
				t.Fatal(err)
			}
			if forgetDropped && rec.uploads[i] == nil {
				up = kept
			}
		}
		return res.Update
	}
	requireSameBits(t, rec.uploads[2], third(false))
	if reflect.DeepEqual(rec.uploads[2], third(true)) {
		t.Error("forgetting the dropped round's leftover gives the same upload; the test has no teeth")
	}
}
