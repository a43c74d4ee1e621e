package checkpoint

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"

	"fedmp/internal/testfd"
)

// TestCycleLeaksNoDescriptors runs the manager's whole life — open, snapshot,
// journal, recover, close, and the two ways a snapshot write can fail with
// its temp file open — twenty times over and demands that no descriptor is
// open afterwards that was not before. The collector is off for the loop: an
// unreachable os.File is closed by its finalizer, which would hide exactly
// the leak this looks for.
func TestCycleLeaksNoDescriptors(t *testing.T) {
	dir := t.TempDir()
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
		if err := m.WriteSnapshot(bad); err == nil {
			t.Fatal("WriteSnapshot accepted a nil tensor")
		}
		// A temp file that cannot be fsync'd (a character device does not
		// support it) fails after the write. The refused snapshot left its
		// empty temp file behind; the device takes its place.
		tmp := filepath.Join(dir, tmpName)
		if err := os.Remove(tmp); err != nil {
			t.Fatal(err)
		}
		if err := os.Symlink(os.DevNull, tmp); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteSnapshot(testSnapshot(r + 2)); err == nil {
			t.Fatal("WriteSnapshot succeeded without a durable temp file")
		}
		if err := os.Remove(tmp); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
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
