package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the quoted expectations of a `// want "..." "..."` comment.
var wantRe = regexp.MustCompile(`// want ((?:"[^"]*"\s*)+)`)

// expectation is one unmatched `want` substring at a file:line.
type expectation struct {
	file string // base name
	line int
	sub  string
}

// loadExpectations scans a fixture directory for want comments.
func loadExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	var out []*expectation
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, q := range regexp.MustCompile(`"[^"]*"`).FindAllString(m[1], -1) {
				out = append(out, &expectation{file: e.Name(), line: line, sub: q[1 : len(q)-1]})
			}
		}
		f.Close()
	}
	return out
}

// checkGolden lints one fixture directory and matches findings against its
// want comments: every finding must be expected, every expectation matched.
func checkGolden(t *testing.T, dir string, opts *Options) {
	t.Helper()
	checkGoldenDirs(t, opts, dir)
}

// checkGoldenDirs lints several fixture directories as one load — the
// cross-package fixtures import each other — and matches the combined
// findings against the combined want comments.
func checkGoldenDirs(t *testing.T, opts *Options, dirs ...string) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	var absDirs []string
	var expects []*expectation
	for _, dir := range dirs {
		abs := filepath.Join(root, "internal/lint", dir)
		absDirs = append(absDirs, abs)
		expects = append(expects, loadExpectations(t, abs)...)
	}
	pkgs, err := LoadDirs(root, absDirs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(expects) == 0 && !strings.Contains(dirs[0], "required") {
		t.Fatalf("fixture %v has no want comments", dirs)
	}
	diags := Run(pkgs, opts)
	for _, d := range diags {
		matched := false
		for _, e := range expects {
			if e != nil && e.file == filepath.Base(d.Pos.Filename) && e.line == d.Pos.Line &&
				strings.Contains(d.Message, e.sub) {
				matched = true
				*e = expectation{} // consume
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, e := range expects {
		if e.sub != "" {
			t.Errorf("missing finding at %s:%d containing %q", e.file, e.line, e.sub)
		}
	}
}

// fixtureScope returns the production options with one rule's scope widened
// to a fixture package.
func fixtureScope(rule, fixture string) *Options {
	opts := DefaultOptions()
	opts.Scope[rule] = append(opts.Scope[rule], "fedmp/internal/lint/testdata/"+fixture)
	return opts
}

func TestRandSourceGolden(t *testing.T) {
	checkGolden(t, "testdata/randsource", DefaultOptions())
}

func TestWallClockGolden(t *testing.T) {
	checkGolden(t, "testdata/wallclock", fixtureScope("wallclock", "wallclock"))
}

func TestFloatEqGolden(t *testing.T) {
	checkGolden(t, "testdata/floateq", DefaultOptions())
}

func TestSyncCopyGolden(t *testing.T) {
	checkGolden(t, "testdata/synccopy", DefaultOptions())
}

func TestAllocFreeGolden(t *testing.T) {
	checkGolden(t, "testdata/allocfree", DefaultOptions())
}

func TestMapOrderGolden(t *testing.T) {
	checkGolden(t, "testdata/maporder", fixtureScope("maporder", "maporder"))
}

func TestGobDenyGolden(t *testing.T) {
	checkGolden(t, "testdata/gobdeny", fixtureScope("gobdeny", "gobdeny"))
}

func TestErrDiscardGolden(t *testing.T) {
	checkGolden(t, "testdata/errdiscard", DefaultOptions())
}

func TestSeedFlowGolden(t *testing.T) {
	checkGolden(t, "testdata/seedflow", DefaultOptions())
}

func TestAtomicWriteGolden(t *testing.T) {
	checkGolden(t, "testdata/atomicwrite", fixtureScope("atomicwrite", "atomicwrite"))
}

func TestGoroLeakGolden(t *testing.T) {
	checkGolden(t, "testdata/goroleak", fixtureScope("goroleak", "goroleak"))
}

func TestTransitiveGolden(t *testing.T) {
	checkGolden(t, "testdata/transitive", DefaultOptions())
}

// TestTransitiveWallclockGolden is the cross-package case: the deny-scoped
// fixture imports an out-of-scope helper package that reads the clock, and
// the findings land at the scope boundary. The dependency is listed after
// the dependent to exercise LoadDirs' dependency-order checking.
func TestTransitiveWallclockGolden(t *testing.T) {
	checkGoldenDirs(t, fixtureScope("wallclock", "transitivedeny"), "testdata/transitivedeny", "testdata/transitiveclock")
}

// TestTransitiveInventoryGate extends the allocfree deletion gate to a hot
// path whose only allocation hides inside a callee: with the annotation
// present the transitive rule flags the callee, with it deleted the
// inventory pin fires — deleting the annotation can never pass silently.
func TestTransitiveInventoryGate(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadDirs(root, filepath.Join(root, "internal/lint/testdata/requiredtrans"))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.RequiredAllocFree = []string{"fedmp/internal/lint/testdata/requiredtrans.transHot"}
	diags := Run(pkgs, opts)
	if len(diags) != 1 {
		t.Fatalf("annotation present: got %d findings, want exactly 1: %v", len(diags), diags)
	}
	if d := diags[0]; d.Rule != "transitive" ||
		!strings.Contains(d.Message, "helperAlloc, which allocates") {
		t.Fatalf("annotation present: unexpected finding %s", d)
	}

	// The deleted-annotation twin: the inventory pin fires (and transHot's
	// own transitive finding stays).
	opts.RequiredAllocFree = []string{"fedmp/internal/lint/testdata/requiredtrans.transHotDeleted"}
	diags = Run(pkgs, opts)
	var sawPin bool
	for _, d := range diags {
		if d.Rule == "allocfree" && strings.Contains(d.Message, "transHotDeleted lost its //fedmp:allocfree") {
			sawPin = true
		}
	}
	if !sawPin {
		t.Fatalf("annotation deleted: inventory pin did not fire: %v", diags)
	}
}

// TestAllocFreeInventory pins a fixture function in RequiredAllocFree and
// checks that its missing annotation is reported — the gate that makes
// deleting a //fedmp:allocfree comment from a real hot path fail `make
// check`.
func TestAllocFreeInventory(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadDirs(root, filepath.Join(root, "internal/lint/testdata/required"))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.RequiredAllocFree = []string{"fedmp/internal/lint/testdata/required.hotPath"}
	diags := Run(pkgs, opts)
	if len(diags) != 1 {
		t.Fatalf("got %d findings, want exactly 1: %v", len(diags), diags)
	}
	if d := diags[0]; d.Rule != "allocfree" || !strings.Contains(d.Message, "lost its //fedmp:allocfree") {
		t.Fatalf("unexpected finding: %s", d)
	}

	// A key whose function vanished entirely is reported distinctly.
	opts.RequiredAllocFree = []string{"fedmp/internal/lint/testdata/required.gone"}
	diags = Run(pkgs, opts)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "no longer exists") {
		t.Fatalf("unexpected findings for vanished hot path: %v", diags)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "wallclock", Message: "boom"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line = 12
	if got, want := d.String(), "a/b.go:12: [wallclock] boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
