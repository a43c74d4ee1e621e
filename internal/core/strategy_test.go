package core

import (
	"math"
	"testing"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
)

// fixtureInfo builds a RoundInfo against a fresh tiny global model.
func fixtureInfo(t *testing.T, fam Family, round int, workers int) *RoundInfo {
	t.Helper()
	return &RoundInfo{
		Round:         round,
		Global:        fam.InitWeights(1),
		PrevLoss:      math.NaN(),
		PrevTimes:     make([]float64, workers),
		PrevCommTimes: make([]float64, workers),
	}
}

func normalizedCfg(t *testing.T, cfg Config) Config {
	t.Helper()
	out, err := Normalize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFedMPAssignProducesPersonalizedSubModels(t *testing.T) {
	fam := tinyFamily()
	cfg := normalizedCfg(t, quickCfg(StrategyFedMP, 3))
	s, err := NewStrategy(fam, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := fixtureInfo(t, fam, 1, cfg.Workers)
	asg, err := s.Assign(info, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(asg) != 4 {
		t.Fatalf("%d assignments", len(asg))
	}
	fullSize := nn.WeightsSize(info.Global)
	for _, a := range asg {
		if a.Plan == nil || a.Base == nil {
			t.Errorf("worker %d: missing plan or base model", a.Worker)
		}
		if a.Ratio > 0 && nn.WeightsSize(a.Weights) >= fullSize {
			t.Errorf("worker %d: ratio %.2f but sub-model not smaller", a.Worker, a.Ratio)
		}
		// Without QuantizeResiduals the PS keeps no residual per worker: the
		// base is the dispatch-time global itself, by reference.
		if len(a.Base) != len(info.Global) || a.Base[0] != info.Global[0] {
			t.Errorf("worker %d: base model is not the dispatched global", a.Worker)
		}
	}
}

func TestFedMPAggregateR2SPIdentityWithUntrainedWorkers(t *testing.T) {
	// If workers return their sub-models untouched, R2SP aggregation must
	// reproduce the global model exactly: recover+residual is the identity.
	fam := tinyFamily()
	cfg := normalizedCfg(t, quickCfg(StrategyFedMP, 3))
	s, err := NewStrategy(fam, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := fixtureInfo(t, fam, 1, cfg.Workers)
	asg, err := s.Assign(info, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]Output, len(asg))
	for i, a := range asg {
		outs[i] = Output{
			Assignment: a,
			NewWeights: nn.CloneWeights(a.Weights), // "trained" = unchanged
			TrainLoss:  1,
			Total:      10,
		}
	}
	newGlobal, err := s.Aggregate(info, outs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range info.Global {
		if !tensor.AllClose(newGlobal[i], info.Global[i], 1e-6) {
			t.Fatalf("tensor %d: R2SP aggregation of untrained sub-models changed the global model", i)
		}
	}
}

func TestFedMPAggregateBSPShrinksPrunedCoordinates(t *testing.T) {
	fam := tinyFamily()
	cfg := normalizedCfg(t, quickCfg(StrategyFixed, 3))
	cfg.FixedRatio = 0.5
	cfg.Sync = SyncBSP
	s, err := NewStrategy(fam, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := fixtureInfo(t, fam, 1, cfg.Workers)
	asg, err := s.Assign(info, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]Output, len(asg))
	for i, a := range asg {
		outs[i] = Output{Assignment: a, NewWeights: nn.CloneWeights(a.Weights), TrainLoss: 1, Total: 10}
	}
	newGlobal, err := s.Aggregate(info, outs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Under BSP with untrained sub-models, pruned coordinates become zero,
	// so the global's norm must drop.
	var before, after float64
	for i := range info.Global {
		before += info.Global[i].SqNorm()
		after += newGlobal[i].SqNorm()
	}
	if after >= before*0.95 {
		t.Errorf("BSP aggregation kept %.1f%% of the squared norm; expected pruned mass to vanish", 100*after/before)
	}
}

func TestUPFLAssignsUniformRatio(t *testing.T) {
	fam := tinyFamily()
	cfg := normalizedCfg(t, quickCfg(StrategyUPFL, 3))
	s, err := NewStrategy(fam, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := fixtureInfo(t, fam, 1, cfg.Workers)
	asg, err := s.Assign(info, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range asg[1:] {
		if a.Ratio != asg[0].Ratio {
			t.Errorf("UP-FL assigned ratios %v and %v; must be uniform", asg[0].Ratio, a.Ratio)
		}
	}
}

func TestFedProxScalesItersToSpeed(t *testing.T) {
	fam := tinyFamily()
	cfg := normalizedCfg(t, quickCfg(StrategyFedProx, 3))
	s, err := NewStrategy(fam, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := fixtureInfo(t, fam, 2, cfg.Workers)
	// Worker 0 was twice as fast as worker 3 last round.
	info.PrevTimes = []float64{5, 10, 10, 20}
	asg, err := s.Assign(info, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if asg[0].Iters <= asg[3].Iters {
		t.Errorf("fast worker got %d iters, slow worker %d; FedProx must give fast workers more",
			asg[0].Iters, asg[3].Iters)
	}
	for _, a := range asg {
		if a.ProxMu <= 0 {
			t.Errorf("worker %d: proximal term not set", a.Worker)
		}
		if a.Iters < 1 || a.Iters > 3*cfg.LocalIters {
			t.Errorf("worker %d: iters %d outside bounds", a.Worker, a.Iters)
		}
	}
}

func TestFlexComAdaptsUploadToBandwidth(t *testing.T) {
	fam := tinyFamily()
	cfg := normalizedCfg(t, quickCfg(StrategyFlexCom, 3))
	s, err := NewStrategy(fam, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := fixtureInfo(t, fam, 2, cfg.Workers)
	// Worker 3's link was four times slower.
	info.PrevCommTimes = []float64{1, 1, 1, 4}
	asg, err := s.Assign(info, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if asg[3].UploadK >= asg[0].UploadK {
		t.Errorf("slow link got upload fraction %.2f vs fast %.2f; must compress more",
			asg[3].UploadK, asg[0].UploadK)
	}
	for _, a := range asg {
		if a.UploadK < 0.05 || a.UploadK > 1 {
			t.Errorf("worker %d: upload fraction %.2f out of bounds", a.Worker, a.UploadK)
		}
	}
}

func TestFlexComAggregateAppliesMeanUpdate(t *testing.T) {
	fam := tinyFamily()
	cfg := normalizedCfg(t, quickCfg(StrategyFlexCom, 3))
	s, err := NewStrategy(fam, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := fixtureInfo(t, fam, 1, cfg.Workers)
	asg, err := s.Assign(info, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two workers report opposite single-coordinate updates; they cancel.
	mk := func(v float32) []*tensor.Tensor {
		u := make([]*tensor.Tensor, len(info.Global))
		for i, g := range info.Global {
			u[i] = tensor.New(g.Shape...)
		}
		u[0].Data[0] = v
		return u
	}
	outs := []Output{
		{Assignment: asg[0], Update: mk(2), TrainLoss: 1, Total: 1},
		{Assignment: asg[1], Update: mk(-2), TrainLoss: 1, Total: 1},
	}
	newGlobal, err := s.Aggregate(info, outs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if newGlobal[0].Data[0] != info.Global[0].Data[0] {
		t.Errorf("cancelling updates changed coordinate: %v -> %v",
			info.Global[0].Data[0], newGlobal[0].Data[0])
	}
}

func TestPolicyVariantsRun(t *testing.T) {
	fam := tinyFamily()
	for _, policy := range []string{"eucb", "discrete", "greedy"} {
		cfg := quickCfg(StrategyFedMP, 3)
		cfg.Policy = policy
		if _, err := Run(fam, cfg); err != nil {
			t.Errorf("policy %s: %v", policy, err)
		}
	}
	cfg := quickCfg(StrategyFedMP, 1)
	cfg.Policy = "nope"
	if _, err := Run(fam, cfg); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestQuantizedResidualsMatchFloatAccuracyClosely(t *testing.T) {
	fam := tinyFamily()
	base := quickCfg(StrategyFedMP, 6)
	res32, err := Run(fam, base)
	if err != nil {
		t.Fatal(err)
	}
	q := base
	q.QuantizeResiduals = true
	res8, err := Run(fam, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res8.FinalAcc-res32.FinalAcc) > 0.15 {
		t.Errorf("quantized residuals changed accuracy too much: %.3f vs %.3f",
			res8.FinalAcc, res32.FinalAcc)
	}
}

func TestStrategyNames(t *testing.T) {
	fam := tinyFamily()
	for _, id := range append(StrategyIDs, StrategyFixed) {
		cfg := normalizedCfg(t, quickCfg(id, 1))
		cfg.FixedRatio = 0.25
		s, err := NewStrategy(fam, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() == "" {
			t.Errorf("%s: empty strategy name", id)
		}
	}
}
