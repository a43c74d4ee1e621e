package lint

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const cgPath = "fedmp/internal/lint/testdata/callgraph"

// loadCallGraphFixture builds the graph and summaries over the callgraph
// fixture package.
func loadCallGraphFixture(t *testing.T) (*CallGraph, *Summaries) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadDirs(root, filepath.Join(root, "internal/lint/testdata/callgraph"))
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCallGraph(pkgs)
	return g, ComputeSummaries(g, DefaultOptions())
}

func nodeByName(t *testing.T, g *CallGraph, name string) *FuncNode {
	t.Helper()
	n := g.byKey[cgPath+"."+name]
	if n == nil {
		t.Fatalf("no node for %s.%s; have %d nodes", cgPath, name, len(g.Nodes))
	}
	return n
}

// edgesTo returns the kinds of n's edges landing on the named callee.
func edgesTo(n *FuncNode, key string) []EdgeKind {
	var kinds []EdgeKind
	for _, e := range n.Out {
		if funcKey(e.Callee.Fn) == key {
			kinds = append(kinds, e.Kind)
		}
	}
	return kinds
}

func TestCallGraphRecursion(t *testing.T) {
	g, _ := loadCallGraphFixture(t)

	direct := nodeByName(t, g, "Direct")
	if kinds := edgesTo(direct, cgPath+".Direct"); len(kinds) != 1 || kinds[0] != EdgeStatic {
		t.Errorf("Direct self edge = %v, want one static edge", kinds)
	}
	if scc := g.SCCs[direct.SCC]; len(scc) != 1 {
		t.Errorf("Direct's SCC has %d nodes, want 1", len(scc))
	}

	even, odd := nodeByName(t, g, "Even"), nodeByName(t, g, "Odd")
	if even.SCC != odd.SCC {
		t.Errorf("Even (SCC %d) and Odd (SCC %d) are mutually recursive and must share an SCC", even.SCC, odd.SCC)
	}
	if scc := g.SCCs[even.SCC]; len(scc) != 2 {
		t.Errorf("Even/Odd SCC has %d nodes, want 2", len(scc))
	}

	// Callee-first emission: every edge lands in the same or an earlier SCC.
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			if e.Callee.SCC > n.SCC {
				t.Errorf("edge %s -> %s violates callee-first SCC order (%d -> %d)",
					funcKey(n.Fn), funcKey(e.Callee.Fn), n.SCC, e.Callee.SCC)
			}
		}
	}
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	g, _ := loadCallGraphFixture(t)
	dispatch := nodeByName(t, g, "Dispatch")
	// C and D name the parameter differently from the interface (D not at
	// all): implementations are matched on types alone.
	for _, impl := range []string{".A.Work", ".B.Work", ".C.Work", ".D.Work"} {
		kinds := edgesTo(dispatch, cgPath+impl)
		if len(kinds) != 1 || kinds[0] != EdgeInterface {
			t.Errorf("Dispatch -> %s = %v, want one interface edge", impl, kinds)
		}
	}
	join := nodeByName(t, g, "DispatchJoin")
	if kinds := edgesTo(join, cgPath+".V.Join"); len(kinds) != 1 || kinds[0] != EdgeInterface {
		t.Errorf("DispatchJoin -> V.Join = %v, want one interface edge", kinds)
	}
	if kinds := edgesTo(join, cgPath+".S.Join"); len(kinds) != 0 {
		t.Errorf("DispatchJoin -> S.Join = %v, want none: S.Join is not variadic", kinds)
	}
}

func TestCallGraphValueRefs(t *testing.T) {
	g, _ := loadCallGraphFixture(t)
	if kinds := edgesTo(nodeByName(t, g, "TakeValue"), cgPath+".leaked"); len(kinds) != 1 || kinds[0] != EdgeValueRef {
		t.Errorf("TakeValue -> leaked = %v, want one value-ref edge", kinds)
	}
	if kinds := edgesTo(nodeByName(t, g, "MethodValue"), cgPath+".A.Work"); len(kinds) != 1 || kinds[0] != EdgeValueRef {
		t.Errorf("MethodValue -> A.Work = %v, want one value-ref edge", kinds)
	}
}

func TestSummaryPropagation(t *testing.T) {
	g, sums := loadCallGraphFixture(t)
	check := func(name string, get func(*Summary) bool, want bool, why string) {
		t.Helper()
		if got := get(sums.Of(nodeByName(t, g, name))); got != want {
			t.Errorf("%s: %s = %v, want %v", name, why, got, want)
		}
	}
	alloc := func(s *Summary) bool { return s.Allocates }
	wall := func(s *Summary) bool { return s.Wallclock }
	forever := func(s *Summary) bool { return s.Forever }

	// Interface dispatch over-approximates: B.Work allocates, so a call
	// through Worker might.
	check("B.Work", alloc, true, "Allocates")
	check("A.Work", alloc, false, "Allocates")
	check("Dispatch", alloc, true, "Allocates (via interface over-approximation)")
	if s := sums.Of(nodeByName(t, g, "Dispatch")); !strings.Contains(s.AllocDesc(), "B.Work") {
		t.Errorf("Dispatch alloc evidence %q does not name B.Work", s.AllocDesc())
	}

	// Value references propagate conservatively.
	check("leaked", alloc, true, "Allocates")
	check("TakeValue", alloc, true, "Allocates (via stored function value)")

	// Wallclock rides the chain; recursion converges clean.
	check("wallRead", wall, true, "Wallclock")
	check("Clocky", wall, true, "Wallclock (via wallRead)")
	check("Even", alloc, false, "Allocates")
	check("Even", wall, false, "Wallclock")
	check("Even", forever, false, "Forever")

	// Forever marks the unguarded loop and its callers.
	check("Spin", forever, true, "Forever")
}

// TestVariantPackageDedup is the regression for test/non-test package
// variants sharing files: loading the same package twice — once under its
// plain path, once under the "p [p.test]" variant spelling — must yield the
// same findings as loading it once.
func TestVariantPackageDedup(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadDirs(root, filepath.Join(root, "internal/lint/testdata/transitive"))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	base := Run(pkgs, opts)
	if len(base) == 0 {
		t.Fatal("transitive fixture produced no findings; the dedup check needs some")
	}
	variant := *pkgs[0]
	variant.Path = pkgs[0].Path + " [fedmp/internal/lint/testdata/transitive.test]"
	both := Run([]*Package{pkgs[0], &variant}, opts)
	if !reflect.DeepEqual(base, both) {
		t.Errorf("variant load changed findings:\nbase: %v\nboth: %v", base, both)
	}
}
