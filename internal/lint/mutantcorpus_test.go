package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// mutant is one entry of testdata/mutants.json: a deliberate bug planted at
// one site by replacing the single occurrence of Old in File with New — and
// of each Also edit's Old with its New, for a bug that needs an import as well
// as its use. The corpus enumerates the sites the retired rules guarded (frame
// emissions, channel closes, file/socket/pool releases, the codec's length
// gate, grow-only buffers, goroutine exits) and the ones the surviving rules
// guard; `make lint-mutants` applies each to a scratch copy of the module and
// records what notices.
type mutant struct {
	ID   string `json:"id"`
	File string `json:"file"` // module-relative, forward slashes
	edit
	Also []edit `json:"also,omitempty"`
	// Packages are the import paths whose tests the runner executes.
	Packages []string `json:"packages"`
	// ParentLint names the since-deleted rules that fired on this mutant
	// while they still existed — measured once, at the parent commit.
	ParentLint []string `json:"parent_lint"`
}

type edit struct {
	Old string `json:"old"`
	New string `json:"new"`
}

// apply returns src with the mutant's edits made, or an error naming the
// first edit that changes nothing or whose old string does not occur exactly
// once.
func (m mutant) apply(src string) (string, error) {
	for _, e := range append([]edit{m.edit}, m.Also...) {
		if e.Old == e.New {
			return "", fmt.Errorf("%s: old == new", m.ID)
		}
		if n := strings.Count(src, e.Old); n != 1 {
			return "", fmt.Errorf("%s: old string %q occurs %d times in %s, want exactly 1", m.ID, e.Old, n, m.File)
		}
		src = strings.Replace(src, e.Old, e.New, 1)
	}
	return src, nil
}

// mutantResult is one row of lint-mutants.json.
type mutantResult struct {
	ID         string   `json:"id"`
	File       string   `json:"file"`
	ParentLint []string `json:"parent_lint"`
	// CaughtBy lists what failed on the mutated tree: "build", "vet",
	// "test", "race", then rule names in TestLint's order. A mutant that
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

func loadMutants(t *testing.T, root string) []mutant {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(root, "internal/lint/testdata/mutants.json"))
	if err != nil {
		t.Fatal(err)
	}
	var corpus []mutant
	if err := json.Unmarshal(raw, &corpus); err != nil {
		t.Fatalf("mutants.json: %v", err)
	}
	return corpus
}

// TestMutantCorpusApplies keeps the corpus and its report from rotting: an
// edit that moves or rewrites a mutated line fails here, in tier-1, instead
// of silently shrinking what `make lint-mutants` measures, and so does a
// lint-mutants.json that covers other rows than the corpus or credits a
// catcher that no longer exists.
func TestMutantCorpusApplies(t *testing.T) {
	root := moduleRoot(t)
	corpus := loadMutants(t, root)
	if len(corpus) < 50 {
		t.Fatalf("corpus shrank to %d mutants", len(corpus))
	}
	ids := make(map[string]bool)
	files := make(map[string]string)
	for _, m := range corpus {
		if m.ID == "" || ids[m.ID] {
			t.Errorf("mutant id %q is empty or repeated", m.ID)
		}
		ids[m.ID] = true
		if len(m.Packages) == 0 {
			t.Errorf("%s: no packages to test", m.ID)
		}
		src, ok := files[m.File]
		if !ok {
			raw, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.File)))
			if err != nil {
				t.Errorf("%s: %v", m.ID, err)
				continue
			}
			src = string(raw)
			files[m.File] = src
		}
		if _, err := m.apply(src); err != nil {
			t.Error(err)
		}
	}

	raw, err := os.ReadFile(filepath.Join(root, "lint-mutants.json"))
	if err != nil {
		t.Fatal(err)
	}
	var report mutantReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("lint-mutants.json: %v", err)
	}
	catchers := []string{"build", "vet", "test", "race"}
	for _, r := range rules {
		catchers = append(catchers, r.name)
	}
	reported := make(map[string]bool)
	for _, r := range report.Mutants {
		if !ids[r.ID] || reported[r.ID] {
			t.Errorf("lint-mutants.json: row %s is not in the corpus or is repeated", r.ID)
		}
		reported[r.ID] = true
		for _, c := range r.CaughtBy {
			if !slices.Contains(catchers, c) {
				t.Errorf("lint-mutants.json: %s credits %q, which is none of %v", r.ID, c, catchers)
			}
		}
	}
	for id := range ids {
		if !reported[id] {
			t.Errorf("lint-mutants.json has no row for %s; rerun make lint-mutants", id)
		}
	}
}
