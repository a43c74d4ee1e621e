package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"fedmp/internal/testfd"
)

// errInjected is what a faultSeam's failures wrap.
var errInjected = errors.New("injected fault")

// faultSeam returns an opened that fails the steps named in fail: "open F",
// "sync F", "close F" or "read F", F being a file's base name, or "dir" for
// dir itself. A failed open closes the file it was handed; a failed Close
// still closes the file, as close(2) releases the descriptor whatever it
// reports.
func faultSeam(dir string, fail ...string) func(*os.File, error) (file, error) {
	set := make(map[string]bool)
	for _, f := range fail {
		set[f] = true
	}
	return func(f *os.File, err error) (file, error) {
		if err != nil {
			return nil, err
		}
		key := filepath.Base(f.Name())
		if f.Name() == dir {
			key = "dir"
		}
		if set["open "+key] {
			return nil, errors.Join(&os.PathError{Op: "open", Path: f.Name(), Err: errInjected}, f.Close())
		}
		return faultyFile{File: f, key: key, fail: set}, nil
	}
}

// faultyFile is an *os.File whose Sync, Close and Read fail where its seam
// says.
type faultyFile struct {
	*os.File
	key  string
	fail map[string]bool
}

func (f faultyFile) Sync() error {
	if f.fail["sync "+f.key] {
		return errInjected
	}
	return f.File.Sync()
}

func (f faultyFile) Close() error {
	err := f.File.Close()
	if f.fail["close "+f.key] {
		return errors.Join(errInjected, err)
	}
	return err
}

func (f faultyFile) Read(p []byte) (int, error) {
	if f.fail["read "+f.key] {
		return 0, errInjected
	}
	return f.File.Read(p)
}

// withSeam runs body with opened replaced by faultSeam(dir, fail...).
func withSeam(dir string, fail []string, body func()) {
	defer func(prev func(*os.File, error) (file, error)) { opened = prev }(opened)
	opened = faultSeam(dir, fail...)
	body()
}

// TestOpenFaultsLeakNoDescriptors fails each step of Open in turn — either
// slot's open, the directory's open, fsync and close, either slot's close on
// the way out of a failed Open or out of Manager.Close — and the read of a
// legacy file under Recover. Every failure must come back as an error that
// wraps the injected one, a failed Open must return no Manager, and no
// descriptor may be left open afterwards. The collector is off: an
// unreachable os.File is closed by its finalizer, which would hide exactly
// the leak this looks for.
func TestOpenFaultsLeakNoDescriptors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	type stage int
	const (
		inOpen stage = iota
		inRecover
		inClose
		nowhere
	)
	cases := []struct {
		fail  []string
		where stage
	}{
		{[]string{"open round.0.ckpt"}, inOpen},
		{[]string{"open round.1.ckpt"}, inOpen},
		{[]string{"open round.1.ckpt", "close round.0.ckpt"}, inOpen},
		{[]string{"open dir"}, inOpen},
		{[]string{"sync dir"}, inOpen},
		{[]string{"close dir"}, inOpen},
		{[]string{"sync dir", "close round.0.ckpt"}, inOpen},
		{[]string{"sync dir", "close round.1.ckpt"}, inOpen},
		{[]string{"read wal.log"}, inRecover},
		{[]string{"close wal.log"}, inRecover},
		{[]string{"close round.0.ckpt"}, inClose},
		{[]string{"close round.1.ckpt"}, inClose},
	}
	run := func(fail []string, where stage) {
		t.Helper()
		what := strings.Join(fail, " + ")
		withSeam(dir, fail, func() {
			m, err := Open(dir)
			if where == inOpen {
				if !errors.Is(err, errInjected) || m != nil {
					t.Fatalf("%s: Open() = %v, %v; want no manager and the injected error", what, m, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s: Open: %v", what, err)
			}
			_, _, err = m.Recover()
			if got := errors.Is(err, errInjected); got != (where == inRecover) {
				t.Errorf("%s: Recover() error %v, want the injected one: %v", what, err, where == inRecover)
			}
			err = m.Close()
			if got := errors.Is(err, errInjected); got != (where == inClose) {
				t.Errorf("%s: Close() error %v, want the injected one: %v", what, err, where == inClose)
			}
		})
	}
	run(nil, nowhere) // whatever the runtime opens lazily is open after this
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range cases {
		before := testfd.Open(t)
		run(c.fail, c.where)
		if leaked := testfd.Leaked(t, before); len(leaked) > 0 {
			t.Errorf("%s: left open: %v", strings.Join(c.fail, " + "), leaked)
		}
	}
}

// TestCycleLeaksNoDescriptors runs the manager's whole life — open, write
// both slots, recover (a legacy log included), close, and a record the codec
// refuses — twenty times over and demands that no descriptor is open
// afterwards that was not before. The collector is off for the loop, as in
// TestOpenFaultsLeakNoDescriptors, which fails each step of Open in turn.
func TestCycleLeaksNoDescriptors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("torn"), 0o644); err != nil {
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
