package lint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mutant is one entry of testdata/mutants.json: a deliberate bug planted at
// one call site by replacing the single occurrence of Old in File with New.
// The corpus enumerates the sites the retired rules guarded (frame emissions,
// channel closes, file/socket/pool releases, the codec's length gate) and the
// grow-only buffers the transitive rule's allocfree half polices;
// `make lint-mutants` applies each to a scratch copy of the module and
// records what notices.
type mutant struct {
	ID   string `json:"id"`
	File string `json:"file"` // module-relative, forward slashes
	Old  string `json:"old"`
	New  string `json:"new"`
	// Packages are the import paths whose tests the runner executes.
	Packages []string `json:"packages"`
	// ParentLint names the since-deleted rules that fired on this mutant
	// while they still existed — measured once, at the parent commit.
	ParentLint []string `json:"parent_lint"`
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

// TestMutantCorpusApplies keeps the corpus from rotting: an edit that moves
// or rewrites a mutated line fails here, in tier-1, instead of silently
// shrinking what `make lint-mutants` measures.
func TestMutantCorpusApplies(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
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
		if m.Old == m.New {
			t.Errorf("%s: old == new", m.ID)
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
		if n := strings.Count(src, m.Old); n != 1 {
			t.Errorf("%s: old string occurs %d times in %s, want exactly 1", m.ID, n, m.File)
		}
	}
}
