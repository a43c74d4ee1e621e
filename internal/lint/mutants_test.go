//go:build mutants

package lint

import (
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// mutantResult is one row of lint-mutants.json.
type mutantResult struct {
	ID         string   `json:"id"`
	File       string   `json:"file"`
	ParentLint []string `json:"parent_lint"`
	// CaughtBy lists what failed on the mutated tree: "build", "vet",
	// "test", "race", then lint rule names in pipeline order. A mutant that
	// does not build is caught by "build" alone — nothing else can run — and
	// "race" means the race detector alone: it runs only when the plain
	// tests pass, since a failure or hang there repeats under -race.
	CaughtBy []string `json:"caught_by"`
}

type mutantReport struct {
	Total   int            `json:"total"`
	Caught  int            `json:"caught"`
	Mutants []mutantResult `json:"mutants"`
}

// racePackages are the packages whose tests also run under the race
// detector, when a mutant names them.
var racePackages = []string{"fedmp/internal/core", "fedmp/internal/transport"}

// goTool runs the go command in dir and reports whether it succeeded.
func goTool(t *testing.T, dir string, args ...string) bool {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil && testing.Verbose() {
		tail := strings.TrimSpace(string(out))
		if len(tail) > 1500 {
			tail = "...\n" + tail[len(tail)-1500:]
		}
		t.Logf("go %s: %v\n%s", strings.Join(args, " "), err, tail)
	}
	return err == nil
}

// copyModule copies the module's files to dst, leaving out version control,
// the nested benchmark module and generated results.
func copyModule(root, dst string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch rel {
			case ".git", ".claude", "benchmark", "results":
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
}

// catchers runs every detector over the tree at dir for the given packages
// and returns the ones that fire.
func catchers(t *testing.T, dir string, pkgs []string) []string {
	t.Helper()
	if !goTool(t, dir, "build", "./...") {
		return []string{"build"}
	}
	var caught []string
	if !goTool(t, dir, append([]string{"vet"}, pkgs...)...) {
		caught = append(caught, "vet")
	}
	if !goTool(t, dir, append([]string{"test", "-count=1", "-timeout", "60s"}, pkgs...)...) {
		caught = append(caught, "test")
	} else {
		var raced []string
		for _, p := range pkgs {
			if slices.Contains(racePackages, p) {
				raced = append(raced, p)
			}
		}
		if len(raced) > 0 && !goTool(t, dir, append([]string{"test", "-race", "-count=1", "-timeout", "180s"}, raced...)...) {
			caught = append(caught, "race")
		}
	}
	loaded, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("lint load of a tree that builds: %v", err)
	}
	fired := make(map[string]bool)
	for _, d := range Run(loaded, DefaultOptions()) {
		fired[d.Rule] = true
	}
	for _, a := range Analyzers() {
		if fired[a.Name] {
			caught = append(caught, a.Name)
		}
	}
	return caught
}

// TestMutantMatrix is `make lint-mutants`: it plants every corpus mutant in
// turn on a scratch copy of the module, records which detectors notice, and
// rewrites lint-mutants.json at the module root. It fails when a mutant the
// committed report (or the parent's deleted rules) caught is now caught by
// nothing.
func TestMutantMatrix(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	corpus := loadMutants(t, root)
	reportPath := filepath.Join(root, "lint-mutants.json")
	wasCaught := make(map[string]bool)
	if raw, err := os.ReadFile(reportPath); err == nil {
		var prev mutantReport
		if err := json.Unmarshal(raw, &prev); err != nil {
			t.Fatalf("lint-mutants.json: %v", err)
		}
		for _, r := range prev.Mutants {
			wasCaught[r.ID] = len(r.CaughtBy) > 0
		}
	}

	tmp := t.TempDir()
	if err := copyModule(root, tmp); err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, m := range corpus {
		for _, p := range m.Packages {
			if !slices.Contains(all, p) {
				all = append(all, p)
			}
		}
	}
	if got := catchers(t, tmp, all); len(got) > 0 {
		t.Fatalf("the unmutated tree already trips %v; run with -v for the output", got)
	}

	report := mutantReport{Total: len(corpus)}
	for _, m := range corpus {
		path := filepath.Join(tmp, filepath.FromSlash(m.File))
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Count(string(src), m.Old) != 1 {
			t.Fatalf("%s: old string does not occur exactly once in %s", m.ID, m.File)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.Old, m.New, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
		caught := catchers(t, tmp, m.Packages)
		if err := os.WriteFile(path, src, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%-36s parent lint %v, caught by %v", m.ID, m.ParentLint, caught)
		if len(caught) > 0 {
			report.Caught++
		} else if wasCaught[m.ID] || len(m.ParentLint) > 0 {
			t.Errorf("%s was caught before and is now caught by nothing", m.ID)
		}
		report.Mutants = append(report.Mutants, mutantResult{
			ID: m.ID, File: m.File,
			ParentLint: append([]string{}, m.ParentLint...),
			CaughtBy:   append([]string{}, caught...),
		})
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(reportPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d mutants caught; wrote %s", report.Caught, report.Total, reportPath)
}
