package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
}
