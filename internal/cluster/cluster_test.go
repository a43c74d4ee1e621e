package cluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestModeSpecsMatchTable2(t *testing.T) {
	// Table II ordering: capability decreases from mode 0 to mode 3.
	for m := 1; m < len(ModeSpecs); m++ {
		if ModeSpecs[m].SpeedFactor >= ModeSpecs[m-1].SpeedFactor {
			t.Errorf("mode %d factor %v not below mode %d factor %v",
				m, ModeSpecs[m].SpeedFactor, m-1, ModeSpecs[m-1].SpeedFactor)
		}
	}
	if ModeSpecs[0].SpeedFactor != 1 {
		t.Errorf("mode 0 factor %v, want 1", ModeSpecs[0].SpeedFactor)
	}
	if ModeSpecs[0].GPUGHz != 1.30 || ModeSpecs[3].GPUGHz != 0.85 {
		t.Error("GPU clocks do not match Table II")
	}
}

func TestComputeTimeScalesWithMode(t *testing.T) {
	const flops = 1e8
	const trials = 300
	avg := func(mode Mode) float64 {
		d := NewDevice(0, mode, Near, ClusterA, 1)
		var s float64
		for i := 0; i < trials; i++ {
			s += d.ComputeTime(flops)
		}
		return s / trials
	}
	t0, t3 := avg(0), avg(3)
	// Mode 3 runs at 0.40× mode 0's speed → ~2.5× the time.
	ratio := t3 / t0
	if ratio < 2 || ratio > 3.2 {
		t.Errorf("mode3/mode0 time ratio %v, want ~2.5", ratio)
	}
}

func TestCommTimeScalesWithDistance(t *testing.T) {
	const bytes = 1 << 20
	const trials = 300
	avg := func(dist Distance) float64 {
		d := NewDevice(0, 0, dist, ClusterA, 2)
		var s float64
		for i := 0; i < trials; i++ {
			s += d.CommTime(bytes)
		}
		return s / trials
	}
	near, far := avg(Near), avg(Far)
	ratio := far / near
	if ratio < 3.5 || ratio > 7 {
		t.Errorf("far/near comm time ratio %v, want ~5", ratio)
	}
}

func TestTimesArePositiveAndProportional(t *testing.T) {
	d := NewDevice(0, 1, Mid, ClusterB, 3)
	if d.ComputeTime(0) != 0 || d.CommTime(0) != 0 {
		t.Error("zero work should take zero time")
	}
	f := func(flops uint32) bool {
		return d.ComputeTime(float64(flops)) >= 0 && d.CommTime(int64(flops)) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestNegativeWorkPanics(t *testing.T) {
	d := NewDevice(0, 0, Near, ClusterA, 4)
	for _, fn := range []func(){
		func() { d.ComputeTime(-1) },
		func() { d.CommTime(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("negative work did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestJitterIsTemporallyCorrelated(t *testing.T) {
	// AR(1) jitter: consecutive times should correlate far more strongly
	// than distant ones.
	d := NewDevice(0, 0, Near, ClusterA, 5)
	const n = 4000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.ComputeTime(1e6)
	}
	corr := func(lag int) float64 { return pearson(xs[:n-lag], xs[lag:]) }
	c1, c50 := corr(1), corr(50)
	if c1 < 0.5 {
		t.Errorf("lag-1 autocorrelation %v, want > 0.5", c1)
	}
	if math.Abs(c50) > 0.3 {
		t.Errorf("lag-50 autocorrelation %v, want near 0", c50)
	}
}

func TestScenarioCompositions(t *testing.T) {
	cases := []struct {
		level   Level
		n       int
		a, b, c int
	}{
		{LevelLow, 10, 10, 0, 0},
		{LevelMedium, 10, 5, 5, 0},
		{LevelHigh, 10, 3, 3, 4},
	}
	for _, cse := range cases {
		s, err := New(cse.level, cse.n, 1)
		if err != nil {
			t.Fatalf("%s: %v", cse.level, err)
		}
		comp := s.Composition()
		if comp[ClusterA] != cse.a || comp[ClusterB] != cse.b || comp[ClusterC] != cse.c {
			t.Errorf("%s: composition %v, want %d/%d/%d", cse.level, comp, cse.a, cse.b, cse.c)
		}
		if s.N() != cse.n {
			t.Errorf("%s: N = %d", cse.level, s.N())
		}
	}
	if _, err := New("nope", 10, 1); err == nil {
		t.Error("unknown level accepted")
	}
	if _, err := New(LevelLow, 0, 1); err == nil {
		t.Error("zero workers accepted")
	}
}

func TestClusterProfiles(t *testing.T) {
	s := Custom(10, 10, 10, 2)
	for _, d := range s.Devices {
		switch d.Cluster {
		case ClusterA:
			if d.Mode > 1 || d.Distance != Near {
				t.Errorf("cluster A device has mode %d distance %d", d.Mode, d.Distance)
			}
		case ClusterB:
			if d.Mode != 2 || d.Distance != Mid {
				t.Errorf("cluster B device has mode %d distance %d", d.Mode, d.Distance)
			}
		case ClusterC:
			if d.Mode != 3 || d.Distance != Far {
				t.Errorf("cluster C device has mode %d distance %d", d.Mode, d.Distance)
			}
		}
	}
}

func TestDefaultScenario(t *testing.T) {
	s := Default(10, 3)
	comp := s.Composition()
	if comp[ClusterA] != 5 || comp[ClusterB] != 5 {
		t.Errorf("default composition %v, want 5 A + 5 B", comp)
	}
	// Odd worker counts still cover everyone.
	s = Default(7, 3)
	if s.N() != 7 {
		t.Errorf("default N = %d, want 7", s.N())
	}
}

func TestScenarioDeterminism(t *testing.T) {
	a := Custom(5, 5, 5, 7)
	b := Custom(5, 5, 5, 7)
	for i := range a.Devices {
		if a.Devices[i].Mode != b.Devices[i].Mode || a.Devices[i].Distance != b.Devices[i].Distance {
			t.Fatal("scenario not deterministic in seed")
		}
	}
}

func TestHighLevelScenarioScales(t *testing.T) {
	for _, n := range []int{10, 20, 30} {
		s, err := New(LevelHigh, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		comp := s.Composition()
		if comp[ClusterC] == 0 {
			t.Errorf("n=%d: high heterogeneity without cluster C devices", n)
		}
		if s.N() != n {
			t.Errorf("n=%d: scenario has %d devices", n, s.N())
		}
	}
}

func TestDeviceString(t *testing.T) {
	d := NewDevice(3, 2, Mid, ClusterB, 1)
	if s := d.String(); s == "" {
		t.Error("empty device description")
	}
}
