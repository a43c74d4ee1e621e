package simclock

import "testing"

func TestFixedIsConstant(t *testing.T) {
	c := Fixed{PerCall: 0.25}
	for i := 0; i < 3; i++ {
		sw := c.Stopwatch()
		if got := c.Since(sw); got != 0.25 {
			t.Fatalf("Fixed stopwatch reported %v, want 0.25", got)
		}
		if got := c.Since(sw); got != 0.25 {
			t.Fatalf("Fixed stopwatch second read %v, want 0.25", got)
		}
	}
	var zero Fixed
	if got := zero.Since(zero.Stopwatch()); got != 0 {
		t.Fatalf("zero Fixed stopwatch reported %v, want 0", got)
	}
}

func TestWallIsMonotoneNonNegative(t *testing.T) {
	var c Wall
	sw := c.Stopwatch()
	a := c.Since(sw)
	b := c.Since(sw)
	if a < 0 || b < a {
		t.Fatalf("wall stopwatch went backwards: %v then %v", a, b)
	}
}
