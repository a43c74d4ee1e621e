package checkpoint

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"fedmp/internal/testfd"
)

// TestCycleLeaksNoDescriptors runs the manager's whole life — open, write
// both slots, recover (a legacy log included), close, a record the codec
// refuses, and an Open that fails after its first slot is open — twenty
// times over and demands that no descriptor is open afterwards that was not
// before. The collector is off for the loop: an unreachable os.File is
// closed by its finalizer, which would hide exactly the leak this looks for.
func TestCycleLeaksNoDescriptors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A directory where the second slot belongs: Open fails after opening
	// the first.
	blocked := t.TempDir()
	if err := os.Mkdir(filepath.Join(blocked, slotNames[1]), 0o755); err != nil {
		t.Fatal(err)
	}
	cycle := func(r int) {
		m, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WriteSnapshot(testSnapshot(r)); err != nil {
			t.Fatal(err)
		}
		if err := m.AppendRound(testSnapshot(r + 1)); err != nil {
			t.Fatal(err)
		}
		if snap, _, err := m.Recover(); err != nil || snap == nil || snap.Round != r+1 {
			t.Fatalf("Recover() = %v, %v; want round %d", snap, err, r+1)
		}
		// A snapshot the codec refuses fails before a byte is written.
		bad := testSnapshot(r + 2)
		bad.Global[0] = nil
		if err := m.AppendRound(bad); err == nil {
			t.Fatal("AppendRound accepted a nil tensor")
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if m, err := Open(blocked); err == nil {
			t.Fatalf("Open succeeded with a directory for a slot: %v", m.Close())
		}
	}
	cycle(0) // whatever the runtime opens lazily is open after this
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := testfd.Open(t)
	for i := 1; i <= 20; i++ {
		cycle(3 * i)
	}
	if leaked := testfd.Leaked(t, before); len(leaked) > 0 {
		t.Errorf("left open after 20 cycles: %v", leaked)
	}
}
