package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestStaleHatches runs the detector over the fixture: the hatch covering a
// real blank error discard is live, the one over innocuous code is stale,
// and the unknown-rule comment is not a hatch at all.
func TestStaleHatches(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadDirs(root, filepath.Join(root, "internal/lint/testdata/hatchstale"))
	if err != nil {
		t.Fatal(err)
	}
	all := Hatches(pkgs)
	if len(all) != 2 {
		t.Fatalf("Hatches() = %v, want the two errdiscard hatches", all)
	}
	for _, h := range all {
		if h.Rule != "errdiscard" {
			t.Errorf("unexpected hatch rule %q in %s", h.Rule, h)
		}
	}
	stale := StaleHatches(pkgs, DefaultOptions())
	if len(stale) != 1 {
		t.Fatalf("StaleHatches() = %v, want exactly the stale one", stale)
	}
	if !strings.HasSuffix(stale[0].File, "hatchstale.go") || stale[0].Rule != "errdiscard" {
		t.Errorf("stale hatch = %s, want the errdiscard hatch in hatchstale.go", stale[0])
	}
	if stale[0].Line != all[1].Line {
		t.Errorf("stale hatch at line %d, want the second hatch (line %d)", stale[0].Line, all[1].Line)
	}
}

// TestRepoHatchesAllLive is the repo-wide gate twin of `fedmp-lint
// -hatches`: every suppression comment in the module must still be earning
// its keep.
func TestRepoHatchesAllLive(t *testing.T) {
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
	all := Hatches(pkgs)
	if len(all) == 0 {
		t.Fatal("Hatches() found none in the module; the scanner is broken (the checkpoint WAL's open carries one)")
	}
	for _, h := range StaleHatches(pkgs, DefaultOptions()) {
		t.Errorf("stale hatch: %s suppresses nothing", h)
	}
}
