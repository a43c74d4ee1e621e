package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"testing"

	"fedmp/internal/testfd"
)

// TestSeedDeterminism is the integration gate behind the maporder rule: two
// in-process runs with the same seed and a fixed clock must print
// byte-identical trajectories and summaries. Any map-iteration order leaking
// into results, any wall-clock read in the deterministic layers, or any
// unseeded randomness breaks this test before it breaks a paper figure.
func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small simulations")
	}
	o := defaultSimOptions()
	o.workers = 4
	o.rounds = 3
	o.evalEvery = 1
	o.seed = 42
	o.fixedClock = true
	// Exercise the fault injector too: its RNG must also be threaded.
	o.straggle = 0.3

	var a, b bytes.Buffer
	if err := runSim(o, &a); err != nil {
		t.Fatal(err)
	}
	if err := runSim(o, &b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("simulation produced no output")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("same-seed runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s\nfirst divergence: %s",
			a.String(), b.String(), firstDiff(a.String(), b.String()))
	}
	if !strings.Contains(a.String(), "round  time(s)") {
		t.Errorf("trajectory header missing from output:\n%s", a.String())
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + " vs " + bl[i]
		}
	}
	return "length mismatch"
}

// TestPopulationRender drives population mode through the CLI layer: the
// header names cohort and population, and -stream swaps the trajectory for
// the constant-memory summary.
func TestPopulationRender(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation")
	}
	o := defaultSimOptions()
	o.workers = 6
	o.rounds = 2
	o.evalEvery = 1
	o.fixedClock = true
	o.population = 100
	o.cohort = 3
	o.stream = true

	var buf bytes.Buffer
	if err := runSim(o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cohort 3 of 100 devices", "streamed over 2 rounds", "round time: mean", "last eval:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "round  time(s)") {
		t.Errorf("streaming output still prints a trajectory:\n%s", out)
	}

	// The flag pair validates: a cohort larger than its population is an error.
	o.population, o.cohort = 4, 9
	if err := runSim(o, &bytes.Buffer{}); err == nil {
		t.Error("cohort > population accepted")
	}
}

// TestProfilesLeaveOutputAlone: a profiled run prints what an unprofiled one
// does and leaves two non-empty pprof files behind.
func TestProfilesLeaveOutputAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small simulations")
	}
	o := defaultSimOptions()
	o.workers = 3
	o.rounds = 2
	o.fixedClock = true

	var plain, prof bytes.Buffer
	if err := runSim(o, &plain); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	if err := profiled(cpu, mem, func() error { return runSim(o, &prof) }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), prof.Bytes()) {
		t.Errorf("profiling changed the output:\n%s\nvs\n%s", plain.String(), prof.String())
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (%v)", path, err)
		}
	}
}

// TestProfiledClosesItsFiles counts descriptors around profiled, as
// fedmp-bench's TestWriteCSVs does around -csv: no profile file stays open
// after a profiled run, after a CPU profile that cannot start because another
// is running, or after an allocation profile sent to /dev/full. The collector
// is off: the finalizer of an unreachable os.File would close it and hide the
// leak.
func TestProfiledClosesItsFiles(t *testing.T) {
	dir := t.TempDir()
	run := func() error { return nil }
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := testfd.Open(t)
	leaked := func(when string) {
		t.Helper()
		for _, target := range testfd.Leaked(t, before) {
			t.Errorf("%s: descriptor on %s left open", when, target)
		}
	}

	if err := profiled(filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof"), run); err != nil {
		t.Fatal(err)
	}
	leaked("after a profiled run")

	// runtime/pprof drops the write errors of its proto encoder, so this
	// run reports success; what it must not do is keep /dev/full open.
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := profiled("", "/dev/full", run); err != nil {
			t.Logf("allocation profile to /dev/full: %v", err)
		}
		leaked("after an allocation profile to a full device")
	}

	busy, err := os.Create(filepath.Join(dir, "busy.prof"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(busy); err != nil {
		busy.Close()
		t.Skipf("cannot start a CPU profile to collide with: %v", err)
	}
	err = profiled(filepath.Join(dir, "second.prof"), "", run)
	pprof.StopCPUProfile()
	if cerr := busy.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err == nil {
		t.Error("a second CPU profile started while one was running")
	}
	leaked("after a CPU profile that could not start")
}
