//go:build race

package nn

// raceEnabled reports whether the race detector instruments this test build
// (see sameBitsOrBothNaN in indirect_test.go).
const raceEnabled = true
