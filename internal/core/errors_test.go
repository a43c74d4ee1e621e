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
	// wrap, when set, wraps every network BuildNet returns.
	wrap   func(nn.Network) nn.Network
	builds atomic.Int32
}

// rigidNet refuses every re-dimensioning, so each Get builds afresh.
type rigidNet struct{ nn.Network }

func (rigidNet) Reshape([]int) bool { return false }

// countedNet wraps a network the way the benchmark's tracer does: it embeds
// it, overrides TrainStep and Eval, and has every other method — Reshape
// among them — promoted.
type countedNet struct {
	nn.Network
	steps, evals *atomic.Int32
}

func (n countedNet) TrainStep(b *nn.Batch) (float64, int) {
	n.steps.Add(1)
	return n.Network.TrainStep(b)
}

func (n countedNet) Eval(b *nn.Batch) (float64, int) {
	n.evals.Add(1)
	return n.Network.Eval(b)
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
	net, err := f.Family.BuildNet(unwrap(desc), seed)
	if err == nil && f.wrap != nil {
		net = f.wrap(net)
	}
	return net, err
}

func (f *faultyFamily) NetWidths(dst []int, desc any) ([]int, bool) {
	return f.Family.NetWidths(dst, unwrap(desc))
}

func (f *faultyFamily) ForwardFLOPs(desc any) (float64, error) {
	return f.Family.ForwardFLOPs(unwrap(desc))
}

func (f *faultyFamily) PlanContext(weights []*tensor.Tensor, dst PlanContext) (PlanContext, error) {
	if f.failPlan {
		return nil, errInjected
	}
	return f.Family.PlanContext(weights, dst)
}

func (f *faultyFamily) Accumulate(acc []*tensor.Tensor, plan any, subW, base []*tensor.Tensor, part, parts int) error {
	if f.failAccumulate {
		return errInjected
	}
	return f.Family.Accumulate(acc, plan, subW, base, part, parts)
}

// evalBuilds is how many networks the first evaluation of a quickCfg run
// builds: one per executor its two chunks (120 examples) are sharded over.
func evalBuilds() int32 { return int32(executors(2)) }

// TestRunSurfacesFamilyErrors makes each family call the driver and the
// simulated workers depend on fail in turn — an evaluation shard's network,
// a worker's network (built because the networks refuse to be
// re-dimensioned), the round's pruning plans, the aggregation — and demands
// Run return that failure, not a panic.
func TestRunSurfacesFamilyErrors(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy StrategyID
		inject   func(*faultyFamily)
	}{
		{"evaluation network", StrategySynFL, func(f *faultyFamily) { f.failBuild = func(n int32) bool { return n == evalBuilds() } }},
		{"worker network", StrategySynFL, func(f *faultyFamily) {
			f.wrap = func(net nn.Network) nn.Network { return rigidNet{net} }
			f.failBuild = func(n int32) bool { return n > evalBuilds() }
		}},
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
	if n := fam.builds.Load(); n != evalBuilds() {
		t.Errorf("%d networks built, want only the first evaluation's %d", n, evalBuilds())
	}
}

// TestWrappedNetworkBuiltOncePerExecutor: a family whose networks come
// wrapped, as the benchmark's traced runs wrap them, still gets one BuildNet
// per executor over a run whose sub-model shapes change round to round —
// Reshape reaches the wrapped network through the wrapper — and trains and
// evaluates on the wrappers.
func TestWrappedNetworkBuiltOncePerExecutor(t *testing.T) {
	var steps, evals atomic.Int32
	fam := &faultyFamily{Family: tinyFamily(), wrap: func(net nn.Network) nn.Network {
		return countedNet{Network: net, steps: &steps, evals: &evals}
	}}
	r, err := newRunner(fam, quickCfg(StrategyFedMP, 6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.run()
	if err != nil {
		t.Fatal(err)
	}
	ratios := map[float64]bool{}
	for _, st := range res.Stats {
		for _, ratio := range st.Ratios {
			ratios[ratio] = true
		}
	}
	if len(ratios) < 3 {
		t.Fatalf("ratios %v: the run did not change shapes", ratios)
	}
	if n := fam.builds.Load(); int(n) != len(r.nets) || len(r.nets) > executors(r.cfg.Workers) {
		t.Errorf("%d networks built for %d executors", n, len(r.nets))
	}
	if steps.Load() == 0 || evals.Load() == 0 {
		t.Errorf("%d train steps and %d evaluations reached the wrappers", steps.Load(), evals.Load())
	}
}
