package experiment

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"fedmp/internal/core"
	"fedmp/internal/zoo"
)

// TestAllArtefactsQuick regenerates every artefact in quick mode through a
// single shared lab (so shared configurations are simulated once) and
// sanity-checks the reports.
func TestAllArtefactsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick artefact suite still runs dozens of small simulations")
	}
	l := NewLab(Options{Quick: true, Seed: 1})
	for _, id := range IDs() {
		rep, err := l.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rep.ID != id {
			t.Errorf("%s: report id %q", id, rep.ID)
		}
		if rep.Title == "" {
			t.Errorf("%s: empty title", id)
		}
		if len(rep.Tables) == 0 {
			t.Errorf("%s: no tables", id)
		}
		for ti, tab := range rep.Tables {
			if len(tab.Columns) == 0 || len(tab.Rows) == 0 {
				t.Errorf("%s table %d: empty (%d cols, %d rows)", id, ti, len(tab.Columns), len(tab.Rows))
			}
			var buf bytes.Buffer
			tab.Render(&buf)
			if buf.Len() == 0 {
				t.Errorf("%s table %d: renders to nothing", id, ti)
			}
		}
	}
}

func TestUnknownArtefact(t *testing.T) {
	if _, err := Run("fig99", Options{Quick: true}); err == nil {
		t.Error("unknown artefact accepted")
	}
}

func TestIDsCoverPaperArtefacts(t *testing.T) {
	ids := IDs()
	want := []string{"table2", "table3", "table4",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"}
	have := strings.Join(ids, ",")
	for _, w := range want {
		if !strings.Contains(have+",", w+",") {
			t.Errorf("artefact %s missing from IDs()", w)
		}
	}
	extras := []string{"ablation-policy", "ablation-quantize", "extra-adaptivity", "extra-churn", "extra-population", "extra-pskill"}
	for _, extra := range extras {
		if !strings.Contains(have+",", extra+",") {
			t.Errorf("extra artefact %s missing from IDs()", extra)
		}
	}
	if len(ids) != len(want)+len(extras) {
		t.Errorf("IDs() has %d entries, want %d", len(ids), len(want)+len(extras))
	}
}

// renderReport renders every table of an artefact into one byte stream.
func renderReport(t *testing.T, opts Options, id string) []byte {
	t.Helper()
	rep, err := Run(id, opts)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	for _, tab := range rep.Tables {
		tab.Render(&buf)
	}
	return buf.Bytes()
}

// TestGridParallelMatchesSerial pins the parallel grid runner's contract:
// cell seeds derive from Options.Seed alone and tables are assembled
// serially from the cache, so MaxParallel only changes wall-clock time —
// the rendered artefact must be byte-identical to a serial run.
func TestGridParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	serial := renderReport(t, Options{Quick: true, Seed: 1, MaxParallel: 1}, "fig2")
	parallel := renderReport(t, Options{Quick: true, Seed: 1, MaxParallel: 4}, "fig2")
	if !bytes.Equal(serial, parallel) {
		t.Errorf("parallel grid run diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if len(serial) == 0 {
		t.Error("fig2 rendered to nothing")
	}
}

// TestResultCacheSharing verifies that two artefacts reading the same
// configuration share one simulation.
func TestResultCacheSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	l := newLab(Options{Quick: true, Seed: 1})
	if _, err := l.run("table3"); err != nil {
		t.Fatal(err)
	}
	before := len(l.cache)
	if before == 0 {
		t.Fatal("table3 cached nothing")
	}
	// Fig. 6 reads exactly the same runs.
	if _, err := l.run("fig6"); err != nil {
		t.Fatal(err)
	}
	if after := len(l.cache); after != before {
		t.Errorf("fig6 added %d runs; expected full reuse of table3's", after-before)
	}
}

// TestSimulateSingleFlight pins the cache's single-flight: a request for a
// key whose run is in flight waits for that run and shares its result
// instead of simulating the configuration again. The second request is
// started from the first call's own "running" line, and the first run goes on
// only once the second is parked on the in-flight entry — so a run that never
// wakes its waiters, or a lock the waiting path leaves held, hangs the test.
func TestSimulateSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	var (
		l       *lab
		fam     core.Family
		cfg     core.Config
		key     string
		runs    int
		shared  *core.Result
		waiting = make(chan error, 1)
	)
	l = newLab(Options{Quick: true, Seed: 1, Logf: func(format string, _ ...any) {
		if !strings.HasPrefix(format, "running") {
			return
		}
		if runs++; runs > 1 {
			return
		}
		go func() {
			res, err := l.simulate(key, fam, cfg)
			shared = res
			waiting <- err
		}()
		for deadline := time.Now().Add(10 * time.Second); !parkedInSimulate(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Error("the second request never waited on the run in flight")
				return
			}
		}
	}})
	var err error
	fam, cfg, key, err = l.specConfig(runSpec{model: zoo.ModelCNN, strategy: core.StrategySynFL, rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.simulate(key, fam, cfg)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waiting:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the request waiting on the run in flight was never woken")
	}
	if runs != 1 {
		t.Errorf("%d runs of one configuration, want 1", runs)
	}
	if shared != res {
		t.Error("the waiting request did not get the in-flight run's result")
	}
}

// parkedInSimulate reports whether a goroutine is blocked receiving on a
// channel inside lab.simulate — a request waiting on another's run.
func parkedInSimulate() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("[chan receive")) && bytes.Contains(g, []byte("(*lab).simulate(")) {
			return true
		}
	}
	return false
}
