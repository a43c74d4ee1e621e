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
	for rule, floor := range map[string]int{
		"wallclock": 4, "maporder": 5, // the deterministic layers
		"gobdeny": 1, "goroleak": 1, // the transport
		"atomicwrite": 1, // the checkpoint layer
	} {
		if got := opts.Scope[rule]; len(got) < floor {
			t.Errorf("Scope[%q] shrank to %v", rule, got)
		}
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
		"fedmp/internal/cluster.jitterSource.Uint64",
		"fedmp/internal/cluster.jitterSource.Int63",
		"fedmp/internal/cluster.Population.Rebind",
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
}

// TestAnalyzerInventory pins the pipeline itself: every rule must stay
// registered, in reporting order, so dropping one from Analyzers() fails the
// suite rather than silently weakening the gate.
func TestAnalyzerInventory(t *testing.T) {
	want := []string{
		"randsource", "wallclock", "floateq", "synccopy", "allocfree",
		"maporder", "gobdeny", "errdiscard", "seedflow",
		"atomicwrite", "goroleak", "transitive",
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
