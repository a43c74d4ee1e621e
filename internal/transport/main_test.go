package transport

import (
	"fmt"
	"os"
	"testing"
	"time"
	_ "unsafe" // for go:linkname

	"fedmp/internal/testfd"
)

// poisonClosed is core's test hook (core.poisonClosed): on, every round
// driver — the simulator's and the served one alike — fills each closed
// round's delivered and lost models with NaN, so a buffer read after its
// round closed shows in the model.
//
//go:linkname poisonClosed fedmp/internal/core.poisonClosed
var poisonClosed bool

// TestMain fails the package when a goroutine running transport code
// outlives its tests. Every goroutine the runtime starts — a connection's
// reader, the accept loop, a hello handler, the abort watcher, an assignment
// send — must end once its server has returned, and so must the workers and
// fake peers the tests start; one that waits on something nobody will close,
// or spins on a dead socket, leaks for good, and no single test would see it.
// Goroutines get a grace period to finish: a session torn down just before
// the last test returned may still be unwinding. Every test runs with core's
// poisonClosed on.
func TestMain(m *testing.M) {
	poisonClosed = true
	code := m.Run()
	if code == 0 {
		var left []string
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			if left = testfd.Goroutines("fedmp/internal/transport."); len(left) == 0 || time.Now().After(deadline) {
				break
			}
		}
		if len(left) > 0 {
			fmt.Fprintf(os.Stderr, "%d goroutine(s) outlived the tests:\n\n", len(left))
			for _, g := range left {
				fmt.Fprintf(os.Stderr, "%s\n\n", g)
			}
			code = 1
		}
	}
	os.Exit(code)
}
