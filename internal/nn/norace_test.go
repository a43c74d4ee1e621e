//go:build !race

package nn

// raceEnabled reports whether the race detector instruments this test build.
const raceEnabled = false
