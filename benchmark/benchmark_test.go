package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// testHarness runs reps in this process: two rounds each, one rep a run.
func testHarness(t *testing.T) *harness {
	t.Helper()
	return &harness{
		rep: func(spec repSpec) (*repResult, error) {
			spec.SpawnedAt = time.Now().UnixNano()
			return runRep(spec)
		},
		procs: 2, out: t.TempDir(), rounds: 2, probeIters: 2, minReps: 1,
	}
}

// TestWorkloadsEmitEveryMetric runs each workload for two rounds, untraced
// and traced, and checks the contract line carries exactly the declared
// metrics, finite, with their units. The wrappers run on the parallel cohort
// goroutines and both ends of the wire, so this is also the -race test.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	h := testHarness(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			run, defs := h.measure, endToEnd
			if traced {
				run, defs = h.trace, perLayer
			}
			r, err := run(w, 1, 0)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed: %v", w.name, traced, r.Correct, r.Failed, r.Attempted, r.Failures)
			}
			line := r.line()
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := line.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.name, traced, d.name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, v.Value)
				}
			}
			if !traced {
				continue
			}
			b, err := os.ReadFile(filepath.Join(h.out, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) < 2 || tf.Spans[0].Name != "run" || float64(len(tf.Spans)) != r.Metrics["trace.spans"] {
				t.Errorf("%s: trace file has %d spans, metrics say %v", w.name, len(tf.Spans), r.Metrics["trace.spans"])
			}
		}
		if left, _ := filepath.Glob(filepath.Join(h.out, "tmp", "*")); len(left) != 0 {
			t.Errorf("%s left scratch files behind: %v", w.name, left)
		}
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json and the code together.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, code has %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d = %+v, code has %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, code has %d", kind, len(got), len(want))
		}
		for i, g := range got {
			name(g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s %d = %+v, code has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25)) {
				t.Errorf("%s %s: bound %v, code has %v", kind, g.Name, g.Bound, w.bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s", endToEnd[0])
	}
}

func TestMedianPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := percentile(xs, 0.95); math.Abs(got-4.8) > 1e-12 {
		t.Errorf("p95 = %v", got)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if median(nil) != 0 || percentile(nil, 0.5) != 0 {
		t.Error("empty input is not 0")
	}
}

// TestQuartileSpread compares against Python's statistics.quantiles(n=4).
func TestQuartileSpread(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{3.2, 4.1, 3.9, 5.0, 4.4}, 0.2804878048780489},
		{[]float64{10, 10, 10, 12}, 0.15},
		{[]float64{1, 100}, 2.9405940594059405},
		{[]float64{7}, 0},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSpeedIndex(t *testing.T) {
	nominal := gaugeNominal.Seconds()
	// Interrupted samples (the slower half) do not move the index.
	xs := []float64{2 * nominal, 100 * nominal, 2 * nominal, 40 * nominal, 2 * nominal, 2 * nominal}
	if got := speedIndex(xs); math.Abs(got-2) > 1e-12 {
		t.Errorf("speedIndex = %v, want 2", got)
	}
	// An odd count keeps the middle sample.
	if got := speedIndex([]float64{3 * nominal, nominal, 50 * nominal}); math.Abs(got-2) > 1e-12 {
		t.Errorf("speedIndex of three = %v, want 2", got)
	}
	if xs[1] != 100*nominal {
		t.Error("speedIndex reordered its input")
	}
}

// TestSpeedGauge checks a gauge always has an index to give, however short
// the interval, and that stop waits for the sampling goroutine (-race).
func TestSpeedGauge(t *testing.T) {
	g := startSpeedGauge()
	if index, n := g.stop(); n != gaugeMinSamples || index <= 0 {
		t.Errorf("stopped at once: index %v over %d samples", index, n)
	}
	g = startSpeedGauge()
	time.Sleep(20 * gaugePeriod)
	if index, n := g.stop(); n <= gaugeMinSamples || index <= 0 || math.IsInf(index, 0) {
		t.Errorf("after %v: index %v over %d samples", 20*gaugePeriod, index, n)
	}
}

func TestSelfNs(t *testing.T) {
	root := span{Start: 100, End: 1100}
	children := []span{
		{Start: 0, End: 150},     // starts before the root: 50 inside
		{Start: 200, End: 400},   // 200
		{Start: 300, End: 500},   // overlaps the previous: 100 more
		{Start: 450, End: 480},   // nested: nothing more
		{Start: 1000, End: 2000}, // runs past the root: 100 inside
		{Start: 5000, End: 6000}, // outside
	}
	if got, want := selfNs(root, children), int64(1000-50-200-100-100); got != want {
		t.Errorf("selfNs = %d, want %d", got, want)
	}
	if got := selfNs(root, nil); got != 1000 {
		t.Errorf("selfNs without children = %d", got)
	}
}

func TestTracerTotals(t *testing.T) {
	tr := newTracer()
	tr.start()
	tr.record("ps", spanPlan, time.Now())
	tr.record("worker", spanTrain, time.Now())
	tr.record("worker", spanTrain, time.Now())
	tr.finish()
	tot := tr.totals()
	if tot["ps/"+spanPlan].Count != 1 || tot["worker/"+spanTrain].Count != 2 || len(tot) != 2 {
		t.Errorf("totals = %v", tot)
	}
	for i, s := range tr.spans {
		if s.ID != i || (i > 0 && s.Parent != 0) || s.End < s.Start {
			t.Errorf("span %d = %+v", i, s)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"alloc_mb_per_round", "MB", "lower", 0.10}
	higher := metricDef{"rounds_per_s", "rounds/s", "higher", 0.10}
	for _, c := range []struct {
		d            metricDef
		a, b, sa, sb float64
		change       float64
		want         string
	}{
		{lower, 100, 105, 0.02, 0.02, 0.05, "ok"},
		{lower, 100, 111, 0.02, 0.02, 0.11, "worse"},
		{lower, 100, 50, 0.02, 0.02, -0.5, "ok"},
		{higher, 100, 89, 0.02, 0.02, 0.11, "worse"},
		{higher, 100, 120, 0.02, 0.02, -0.2, "ok"},
		{lower, 100, 130, 0.02, 0.12, 0.3, "unresolved"},
		{lower, 100, 100, 0.11, 0.02, 0, "unresolved"},
	} {
		change, v := verdict(c.d, c.a, c.b, c.sa, c.sb)
		if v != c.want || math.Abs(change-c.change) > 1e-12 {
			t.Errorf("verdict(%s, %v -> %v, spreads %v/%v) = %+.3f %s, want %+.3f %s", c.d.name, c.a, c.b, c.sa, c.sb, change, v, c.change, c.want)
		}
	}
}

// TestCompareFiles runs -compare end to end on two hand-made suite results.
func TestCompareFiles(t *testing.T) {
	suite := func(rps float64) string {
		s := suiteResult{}
		for seed := int64(1); seed <= 4; seed++ {
			m := make(map[string]float64)
			for _, d := range endToEnd {
				m[d.name] = 1 + float64(seed)/1000
			}
			m["rounds_per_s"] = rps + float64(seed)/1000
			s.Runs = append(s.Runs, &runResult{Workload: workloads[0].name, Seed: seed, Correct: true, Attempted: 600, Metrics: m})
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "result.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slow := suite(10), suite(7)
	var out bytes.Buffer
	if code := run([]string{"-compare", base, base}, &out, &out); code != 0 || strings.Contains(out.String(), "worse") {
		t.Errorf("comparing a result with itself: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-compare", base, slow}, &out, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("comparing with a 30%% slower result: exit %d\n%s", code, out.String())
	}
	if rows := strings.Count(out.String(), workloads[0].name); rows != len(endToEnd)+1 {
		t.Errorf("%d rows for the workload, want %d\n%s", rows, len(endToEnd)+1, out.String())
	}
}
