//go:build race

package core

// raceEnabled reports whether the race detector instruments this test build
// (see TestRunWorkerSteadyStateAllocs).
const raceEnabled = true
