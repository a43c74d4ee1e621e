package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"reflect"
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
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	abs := filepath.Join(root, "internal/lint", dir)
	expects := loadExpectations(t, abs)
	if len(expects) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}
	pkgs, err := LoadDirs(root, abs)
	if err != nil {
		t.Fatal(err)
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

func TestMapOrderGolden(t *testing.T) {
	checkGolden(t, "testdata/maporder", fixtureScope("maporder", "maporder"))
}

func TestGobDenyGolden(t *testing.T) {
	checkGolden(t, "testdata/gobdeny", fixtureScope("gobdeny", "gobdeny"))
}

func TestErrDiscardGolden(t *testing.T) {
	checkGolden(t, "testdata/errdiscard", DefaultOptions())
}

func TestAtomicWriteGolden(t *testing.T) {
	checkGolden(t, "testdata/atomicwrite", fixtureScope("atomicwrite", "atomicwrite"))
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
	pkgs, err := LoadDirs(root, filepath.Join(root, "internal/lint/testdata/errdiscard"))
	if err != nil {
		t.Fatal(err)
	}
	base := Run(pkgs, DefaultOptions())
	if len(base) == 0 {
		t.Fatal("errdiscard fixture produced no findings; the dedup check needs some")
	}
	variant := *pkgs[0]
	variant.Path = pkgs[0].Path + " [fedmp/internal/lint/testdata/errdiscard.test]"
	both := Run([]*Package{pkgs[0], &variant}, DefaultOptions())
	if !reflect.DeepEqual(base, both) {
		t.Errorf("variant load changed findings:\nbase: %v\nboth: %v", base, both)
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
