// Package testfd reads this process's descriptor table for the tests that
// look for leaked files and sockets.
package testfd

import (
	"os"
	"path/filepath"
	"slices"
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
