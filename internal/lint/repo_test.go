package lint

import (
	"testing"
)

// TestRepoLintsClean is the acceptance gate: the module itself must carry
// zero findings under the production options. It is the same check `make
// lint` runs, kept in-process so `go test ./...` alone already enforces the
// invariants.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages; loader is dropping module packages", len(pkgs))
	}
	diags := Run(pkgs, DefaultOptions())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestDefaultOptionsPinHotPaths guards the inventory itself: the PR 2 GEMM
// and nn hot paths must stay pinned, so weakening the configuration (rather
// than the annotations) is also caught.
func TestDefaultOptionsPinHotPaths(t *testing.T) {
	opts := DefaultOptions()
	for _, key := range []string{
		"fedmp/internal/tensor.gemmBlocked",
		"fedmp/internal/tensor.microTileGo",
		"fedmp/internal/nn.Dense.Forward",
		"fedmp/internal/nn.Dense.Backward",
	} {
		found := false
		for _, k := range opts.RequiredAllocFree {
			if k == key {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("RequiredAllocFree no longer pins %s", key)
		}
	}
	if len(opts.WallclockDeny) < 4 {
		t.Errorf("WallclockDeny shrank to %v", opts.WallclockDeny)
	}
	if len(opts.MapOrderDeny) < 5 {
		t.Errorf("MapOrderDeny shrank to %v; the deterministic layers must stay covered", opts.MapOrderDeny)
	}
	for _, key := range []string{
		"fedmp/internal/tensor.microTileFMA",
		"fedmp/internal/tensor.mergeTile",
		"fedmp/internal/tensor.fmaf32",
		"fedmp/internal/tensor.gemmMacro",
		"fedmp/internal/tensor.gemmDirectSIMD",
		"fedmp/internal/tensor.packRows",
		"fedmp/internal/tensor.packTransposed",
		"fedmp/internal/tensor.PackedA.Pack",
		"fedmp/internal/tensor.PackedB.Pack",
		"fedmp/internal/tensor.GEMMPacked",
		"fedmp/internal/tensor.ExpInto",
		"fedmp/internal/tensor.SigmoidInto",
		"fedmp/internal/tensor.TanhInto",
		"fedmp/internal/tensor.Im2Col",
		"fedmp/internal/tensor.Col2Im",
		"fedmp/internal/nn.Conv2D.Forward",
		"fedmp/internal/nn.Conv2D.Backward",
		"fedmp/internal/nn.LSTM.Forward",
		"fedmp/internal/nn.LSTM.Backward",
		"fedmp/internal/nn.SoftmaxCE.softmaxCE",
		"fedmp/internal/nn.ReLU.Forward",
		"fedmp/internal/nn.MaxPool2D.Forward",
		"fedmp/internal/nn.SGD.Step",
		"fedmp/internal/prune.SymmetricScale",
		"fedmp/internal/prune.QuantizeElem",
		"fedmp/internal/prune.accumulate",
		"fedmp/internal/prune.addInto",
		"fedmp/internal/prune.SelectKth",
		"fedmp/internal/transport/codec.putF32s",
		"fedmp/internal/transport/codec.getF32s",
		"fedmp/internal/transport/codec.nonzeroCount",
		"fedmp/internal/transport/codec.quantNonzeroCount",
		"fedmp/internal/simsched.Scheduler.Pop",
		"fedmp/internal/simsched.Scheduler.push",
		"fedmp/internal/cluster.SubSeed",
		"fedmp/internal/cluster.Population.Available",
	} {
		found := false
		for _, k := range opts.RequiredAllocFree {
			if k == key {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("RequiredAllocFree no longer pins codec fast path %s", key)
		}
	}
	if len(opts.GobDeny) < 1 {
		t.Errorf("GobDeny shrank to %v; the wire layers must stay covered", opts.GobDeny)
	}
	if len(opts.WireTaintScope) < 1 {
		t.Errorf("WireTaintScope shrank to %v; the frame decoders must stay covered", opts.WireTaintScope)
	}
	if len(opts.GoroLeakScope) < 1 {
		t.Errorf("GoroLeakScope shrank to %v; transport spawns must stay covered", opts.GoroLeakScope)
	}
	if len(opts.ChanLifeScope) < 10 {
		t.Errorf("ChanLifeScope shrank to %v; the production packages must stay covered", opts.ChanLifeScope)
	}
	if len(opts.ScopeDropScope) < 9 {
		t.Errorf("ScopeDropScope shrank to %v; the production packages must stay covered", opts.ScopeDropScope)
	}
	if len(opts.ProtoOrderScope) < 2 {
		t.Errorf("ProtoOrderScope shrank to %v; transport and core must stay covered", opts.ProtoOrderScope)
	}
	for _, root := range []string{
		"fedmp/internal/transport.Serve",
		"fedmp/internal/transport.RunWorker",
	} {
		if len(opts.ProtoOrderRoles[root]) == 0 {
			t.Errorf("ProtoOrderRoles no longer pins role root %s", root)
		}
	}
}

// TestAnalyzerInventory pins the pipeline itself: all seventeen rules must
// stay registered, in reporting order, so dropping one from Analyzers()
// fails the suite rather than silently weakening the gate.
func TestAnalyzerInventory(t *testing.T) {
	want := []string{
		"randsource", "wallclock", "floateq", "synccopy", "allocfree",
		"maporder", "gobdeny", "errdiscard", "lockbalance", "seedflow",
		"atomicwrite", "wiretaint", "goroleak", "transitive",
		"chanlife", "protoorder", "scopedrop",
	}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() has %d rules, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing doc or run function", a.Name)
		}
	}
}
