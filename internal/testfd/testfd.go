// Package testfd holds the process-level oracles tests share: it reads this
// process's descriptor table and goroutine stacks for the tests that look for
// leaked files, sockets and goroutines, and runs the allocation tables that
// hold hot paths to zero heap allocations.
package testfd

import (
	"os"
	"path"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// Open returns how many of this process's open file descriptors refer to each
// target ("socket:[inode]", a file path, ...), skipping the test where there
// is no /proc/self/fd to read. Take it before the code under test, with the
// collector off — the finalizer of an unreachable os.File or socket would
// close it and hide the leak — and hand it to Leaked afterwards.
func Open(t testing.TB) map[string]int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor table to read: %v", err)
	}
	open := make(map[string]int)
	for _, fd := range fds {
		// The descriptor ReadDir itself used is gone by now; skip it.
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil {
			open[target]++
		}
	}
	return open
}

// Leaked lists, sorted, the targets with more descriptors open on them now
// than in before. Descriptors are told apart by identity, not by number: one
// more on a path that was already open (/dev/null, a file every cycle of a
// loop leaks again) counts, and a descriptor another test's leftover
// goroutine closes meanwhile cannot stand in for one this test leaks.
func Leaked(t testing.TB, before map[string]int) []string {
	t.Helper()
	var leaked []string
	for target, n := range Open(t) {
		if n > before[target] {
			leaked = append(leaked, target)
		}
	}
	slices.Sort(leaked)
	return leaked
}

// Goroutines returns the stacks of the caller's fellow goroutines that are
// running a function whose qualified name starts with prefix
// ("fedmp/internal/transport." — the trailing dot leaves out subpackages).
// Called once a package's tests are over, it lists the ones they left behind.
func Goroutines(prefix string) []string {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var found []string
	// The first stack is the caller's own; a frame's function name starts its
	// line, where "created by" lines do not.
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if strings.Contains(g, "\n"+prefix) {
			found = append(found, g)
		}
	}
	return found
}

// AllocRow is one row of a package's allocation table: the hot-path functions
// a warm call reaches, as function values so that renaming or deleting one
// breaks the table's build, and either Setup, which builds the call's fixture
// and returns the call, or By, a test of the package that measures such a
// call itself.
type AllocRow struct {
	Fns   []any
	Setup func() func()
	By    func(*testing.T)
}

// AllocTable runs a package's allocation table, one subtest per row: a Setup
// row's call runs twice to warm its buffers, and then testing.AllocsPerRun
// must read 0; a By row runs its test. The race detector instruments
// allocations, so the table's file builds with !race.
func AllocTable(t *testing.T, rows []AllocRow) {
	for _, row := range rows {
		test := row.By
		if test == nil {
			test = func(t *testing.T) {
				call := row.Setup()
				call()
				call()
				if got := testing.AllocsPerRun(20, call); got != 0 {
					names := make([]string, len(row.Fns))
					for i, fn := range row.Fns {
						names[i] = funcName(fn)
					}
					t.Errorf("%s: %.1f allocations per warm call, want 0", strings.Join(names, ", "), got)
				}
			}
		}
		t.Run(funcName(row.Fns[0]), test)
	}
}

// funcName returns a function's name without its package path:
// "(*PackedA).Pack" for fedmp/internal/tensor.(*PackedA).Pack.
func funcName(fn any) string {
	name := path.Base(runtime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name())
	return name[strings.IndexByte(name, '.')+1:]
}
