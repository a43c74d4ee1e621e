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

// TestDefaultOptionsPinHotPaths guards the configuration itself: wallclock
// must keep covering every package the simulation's hot paths run in (the
// layers themselves and everything they call, transport's codec included),
// and no other scope may shrink, so weakening DefaultOptions fails the suite
// as surely as deleting a rule would.
func TestDefaultOptionsPinHotPaths(t *testing.T) {
	opts := DefaultOptions()
	for _, pkg := range []string{
		"fedmp/internal/core", "fedmp/internal/cluster", "fedmp/internal/bandit",
		"fedmp/internal/experiment", "fedmp/internal/simsched", "fedmp/internal/data",
		"fedmp/internal/metrics", "fedmp/internal/nn", "fedmp/internal/prune",
		"fedmp/internal/tensor", "fedmp/internal/zoo", "fedmp/internal/transport/codec",
	} {
		pass := &Pass{Pkg: &Package{Path: pkg}, Opts: opts}
		if !pass.inScope("wallclock") {
			t.Errorf("wallclock no longer covers %s", pkg)
		}
	}
	for rule, floor := range map[string]int{
		"maporder":    6, // the layers that order output
		"gobdeny":     1, // the transport
		"atomicwrite": 1, // the checkpoint layer
	} {
		if got := opts.Scope[rule]; len(got) < floor {
			t.Errorf("Scope[%q] shrank to %v", rule, got)
		}
	}
}

// TestAnalyzerInventory pins the pipeline itself: every rule must stay
// registered, in reporting order, so dropping one from Analyzers() fails the
// suite rather than silently weakening the gate.
func TestAnalyzerInventory(t *testing.T) {
	want := []string{
		"randsource", "wallclock", "floateq", "maporder", "gobdeny",
		"errdiscard", "atomicwrite",
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
