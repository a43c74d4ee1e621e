package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
)

// errInjected is the failure faultyFamily injects.
var errInjected = errors.New("injected family failure")

// faultyFamily is a Family with chosen methods made to fail, so a test can
// check that every error the round loop meets ends the run with that error
// — not a nil model trained on, a round priced at zero bytes or a barren
// round retried until the loop gives up.
type faultyFamily struct {
	Family
	// failBuild reports whether the nth BuildNet call (from 1) fails.
	failBuild      func(n int32) bool
	failPlan       bool
	failAccumulate bool
	// unframable wraps FullDesc in a type the wire codec cannot encode;
	// every other method unwraps it.
	unframable bool
	builds     atomic.Int32
}

// opaqueDesc is a description the codec has no layout for.
type opaqueDesc struct{ desc any }

func unwrap(desc any) any {
	if o, ok := desc.(opaqueDesc); ok {
		return o.desc
	}
	return desc
}

func (f *faultyFamily) FullDesc() any {
	if f.unframable {
		return opaqueDesc{f.Family.FullDesc()}
	}
	return f.Family.FullDesc()
}

func (f *faultyFamily) BuildNet(desc any, seed int64) (nn.Network, error) {
	if n := f.builds.Add(1); f.failBuild != nil && f.failBuild(n) {
		return nil, errInjected
	}
	return f.Family.BuildNet(unwrap(desc), seed)
}

func (f *faultyFamily) NetSignature(dst []int, desc any) ([]int, bool) {
	return f.Family.NetSignature(dst, unwrap(desc))
}

func (f *faultyFamily) ForwardFLOPs(desc any) (float64, error) {
	return f.Family.ForwardFLOPs(unwrap(desc))
}

func (f *faultyFamily) PlanContext(weights []*tensor.Tensor) (PlanContext, error) {
	if f.failPlan {
		return nil, errInjected
	}
	return f.Family.PlanContext(weights)
}

func (f *faultyFamily) Accumulate(acc []*tensor.Tensor, plan any, subW, base []*tensor.Tensor) error {
	if f.failAccumulate {
		return errInjected
	}
	return f.Family.Accumulate(acc, plan, subW, base)
}

// TestRunSurfacesFamilyErrors makes each family call the driver and the
// simulated workers depend on fail in turn — the evaluation network, a
// worker's network, the round's pruning plans, the aggregation — and demands
// Run return that failure.
func TestRunSurfacesFamilyErrors(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy StrategyID
		inject   func(*faultyFamily)
	}{
		{"evaluation network", StrategySynFL, func(f *faultyFamily) { f.failBuild = func(n int32) bool { return n == 1 } }},
		{"worker network", StrategySynFL, func(f *faultyFamily) { f.failBuild = func(n int32) bool { return n > 1 } }},
		{"pruning plan", StrategyFedMP, func(f *faultyFamily) { f.failPlan = true }},
		{"aggregation", StrategyFedMP, func(f *faultyFamily) { f.failAccumulate = true }},
	} {
		fam := &faultyFamily{Family: tinyFamily()}
		tc.inject(fam)
		if _, err := Run(fam, quickCfg(tc.strategy, 2)); !errors.Is(err, errInjected) {
			t.Errorf("%s fails: Run returned %v, want the injected failure", tc.name, err)
		}
	}
}

// TestRunRefusesUnframableAssignment: the simulator prices every assignment
// by the frame the TCP server would send, so one the codec cannot encode
// ends the run with the codec's reason instead of training at zero bytes.
func TestRunRefusesUnframableAssignment(t *testing.T) {
	fam := &faultyFamily{Family: tinyFamily(), unframable: true}
	_, err := Run(fam, quickCfg(StrategySynFL, 2))
	if err == nil || !strings.Contains(err.Error(), "unsupported description") {
		t.Fatalf("Run returned %v, want the codec's refusal of the assignment", err)
	}
	if n := fam.builds.Load(); n != 1 {
		t.Errorf("%d networks built, want only the evaluation network's", n)
	}
}
