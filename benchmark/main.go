// Command benchmark is the repo's end-to-end benchmark: four federated-round
// workloads (three on the simulator, one over loopback TCP), measured from
// outside through the public functions of fedmp/internal, with a per-layer
// ledger from a traced run. BENCHMARK.json at the repo root names it; see
// README.md in this directory for the metrics and how to read them.
//
// One run (what BENCHMARK.json's command does):
//
//	bash benchmark/run.sh -workload sim-cnn30 -seed 1 -seconds 30 -trace 0
//
// repeats the workload in fresh child processes for the given time, checks
// the results and prints one JSON line of medians. The whole suite:
//
//	bash benchmark/run.sh -runs 10
//
// makes that many runs of every workload (seeds seed, seed+1, …) plus one
// traced run each, prints every metric with its spread and writes
// result.json and one trace file per workload under -out.
//
//	bash benchmark/run.sh -compare a.json b.json
//
// compares two suite results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fedmp/internal/tensor"
)

// repEnv carries a repSpec to a child process.
const repEnv = "FEDMP_BENCH_REP"

// runSeconds is how long one run measures (BENCHMARK.json's run_seconds).
const runSeconds = 30

// childTimeout bounds one child process.
const childTimeout = 150 * time.Second

func main() {
	if spec := os.Getenv(repEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childMain runs the rep (or probes) the parent asked for and prints the
// result as JSON.
func childMain(specJSON string) int {
	var spec repSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	res, err := runRep(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

// spawnRep runs one rep in a fresh process re-executed from this binary, so
// every rep starts cold and peak RSS belongs to exactly one rep.
func spawnRep(spec repSpec) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	spec.SpawnedAt = time.Now().UnixNano()
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), repEnv+"="+string(b))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s rep: %w", spec.Workload, err)
	}
	var res repResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s rep: reading result: %w", spec.Workload, err)
	}
	return &res, nil
}

// harness holds what every run shares.
type harness struct {
	// rep executes one rep; spawnRep outside tests.
	rep func(repSpec) (*repResult, error)
	// procs is GOMAXPROCS of the untraced reps: nproc, capped at 4.
	procs int
	// out is where traces and results go, and under it the scratch
	// directory for checkpoints.
	out string
	// rounds overrides every workload's round count (tests); 0 keeps them.
	rounds int
	// probeIters is the least number of calls each probe times.
	probeIters int
	// minReps is the least number of reps in an untraced run, however
	// little time it is given.
	minReps int
}

func (h *harness) spec(w *workload, seed int64, procs int) repSpec {
	return repSpec{Workload: w.name, Seed: seed, Procs: procs, Rounds: h.rounds, Scratch: filepath.Join(h.out, "tmp")}
}

// runResult is one run of one workload: the contract's output line plus what
// the suite keeps.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Correct  bool   `json:"correct"`
	// Attempted and Failed count worker assignments over all reps.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Reps is the sample count behind each median; RepWallS are the reps'
	// raw Run/Serve wall times in order and RepSpeed their speed indices, to
	// show the noise inside the run and what the gauge made of it.
	Reps     int                `json:"reps"`
	RepWallS []float64          `json:"rep_wall_s,omitempty"`
	RepSpeed []float64          `json:"rep_speed,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	Failures []string           `json:"failures,omitempty"`
}

// add folds one rep's ops and correctness failures into the run.
func (r *runResult) add(rep *repResult) {
	r.Attempted += rep.Ops
	r.Failed += rep.FailedOps
	for _, f := range rep.Failures {
		r.fail("%s", f)
	}
}

func (r *runResult) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// sameFingerprint records a failure unless every simulator rep produced the
// identical result: determinism, GOMAXPROCS-independence, and tracing that
// does not perturb. Wire results follow arrival order and are not compared.
func (r *runResult) sameFingerprint(w *workload, reps []*repResult) {
	if w.wire {
		return
	}
	for _, rep := range reps[1:] {
		if a, b := reps[0].fingerprint(), rep.fingerprint(); a != b {
			r.fail("results differ between reps (procs %d traced %v vs procs %d traced %v): %s vs %s",
				reps[0].Procs, reps[0].Traced, rep.Procs, rep.Traced, a, b)
		}
	}
}

// measure is one untraced run: reps in fresh processes until seconds have
// passed (at least h.minReps), each metric the median over the reps. Every
// host time is divided by its rep's speed index first (see speed.go), so it
// reads in seconds of the quiet reference machine.
func (h *harness) measure(w *workload, seed int64, seconds float64) (*runResult, error) {
	r := &runResult{Workload: w.name, Seed: seed, Metrics: make(map[string]float64)}
	var reps []*repResult
	start := time.Now()
	for {
		spec := h.spec(w, seed, h.procs)
		spec.Gauge = true
		rep, err := h.rep(spec)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		r.add(rep)
		r.RepWallS = append(r.RepWallS, rep.WallS)
		r.RepSpeed = append(r.RepSpeed, rep.SpeedIndex)
		// Another rep only if most of it fits in the time left.
		elapsed := time.Since(start).Seconds()
		if len(reps) >= h.minReps && elapsed+0.5*elapsed/float64(len(reps)) > seconds {
			break
		}
	}
	r.Reps = len(reps)
	r.sameFingerprint(w, reps)
	med := func(f func(*repResult) float64) float64 {
		xs := make([]float64, len(reps))
		for i, rep := range reps {
			xs[i] = f(rep)
		}
		return median(xs)
	}
	rounds := func(rep *repResult) float64 { return float64(rep.Rounds) }
	// ref converts a rep's host seconds to reference seconds.
	ref := func(rep *repResult, hostS float64) float64 { return hostS / rep.SpeedIndex }
	r.Metrics["setup_s"] = med(func(rep *repResult) float64 { return ref(rep, rep.SetupS) })
	r.Metrics["rounds_per_s"] = med(func(rep *repResult) float64 { return rounds(rep) / ref(rep, rep.WallS) })
	r.Metrics["rounds_per_cpu_s"] = med(func(rep *repResult) float64 { return rounds(rep) / ref(rep, rep.CPUS) })
	r.Metrics["rounds_per_result_s"] = med(func(rep *repResult) float64 {
		if w.wire { // the server's wall clock is a host time
			return rounds(rep) / ref(rep, rep.ResultS)
		}
		return rounds(rep) / rep.ResultS
	})
	// The raw rate and the index behind the normalised ones, for the suite's
	// report; the contract line leaves them to the traced run.
	r.Metrics["host.rounds_per_wall_s"] = med(func(rep *repResult) float64 { return rounds(rep) / rep.WallS })
	r.Metrics["host.speed_index"] = med(func(rep *repResult) float64 { return rep.SpeedIndex })
	r.Metrics["alloc_mb_per_round"] = med(func(rep *repResult) float64 { return float64(rep.AllocBytes) / 1e6 / rounds(rep) })
	r.Metrics["peak_rss_mb"] = med(func(rep *repResult) float64 { return float64(rep.PeakRSSKB) / 1e3 })
	r.Metrics["traffic_mb_per_round"] = med(func(rep *repResult) float64 { return float64(rep.DownBytes+rep.UpBytes) / 1e6 / rounds(rep) })
	r.Correct = len(r.Failures) == 0
	return r, nil
}

// traceIter is one iteration of the traced run. In the simulator serial and
// traced run at GOMAXPROCS=1, so spans do not overlap and the root's self
// time is the engine's own; par is the untraced rep at nproc. On the wire
// there is no serial rep, and traced runs at nproc like par.
type traceIter struct {
	serial, traced, par *repResult
}

// trace is the traced run: iterations of (untraced, traced) reps while time
// remains, then the probes; every per-layer metric is the median over the
// iterations. The last iteration's spans stay in <out>/trace-<workload>.json.
func (h *harness) trace(w *workload, seed int64, seconds float64) (*runResult, error) {
	r := &runResult{Workload: w.name, Seed: seed, Traced: true, Metrics: make(map[string]float64)}
	tracedProcs := 1
	if w.wire {
		tracedProcs = h.procs
	}
	var iters []traceIter
	var all []*repResult
	start := time.Now()
	for {
		var it traceIter
		var err error
		if !w.wire {
			if it.serial, err = h.rep(h.spec(w, seed, 1)); err != nil {
				return nil, err
			}
			all = append(all, it.serial)
		}
		spec := h.spec(w, seed, tracedProcs)
		spec.TraceTo = filepath.Join(h.out, "trace-"+w.name+".json")
		// The gauge runs where the untraced runs have it, at nproc. At
		// GOMAXPROCS=1 its work would land in the root span's self time.
		spec.Gauge = w.wire
		if it.traced, err = h.rep(spec); err != nil {
			return nil, err
		}
		spec = h.spec(w, seed, h.procs)
		spec.Gauge = true
		if it.par, err = h.rep(spec); err != nil {
			return nil, err
		}
		all = append(all, it.traced, it.par)
		iters = append(iters, it)
		if time.Since(start).Seconds() > 0.75*seconds {
			break
		}
	}
	for _, rep := range all {
		r.add(rep)
	}
	r.Reps = len(iters)
	r.sameFingerprint(w, all)

	probeSpec := h.spec(w, seed, h.procs)
	probeSpec.ProbeIters = h.probeIters
	probed, err := h.rep(probeSpec)
	if err != nil {
		return nil, err
	}

	samples := make(map[string][]float64)
	for _, it := range iters {
		for name, v := range layerMetrics(w, it) {
			samples[name] = append(samples[name], v)
		}
	}
	var roundMS []float64
	for _, rep := range all {
		if !rep.Traced {
			roundMS = append(roundMS, rep.RoundMS...)
		}
	}
	for _, def := range perLayer {
		r.Metrics[def.name] = median(samples[def.name])
	}
	maps.Copy(r.Metrics, probed.Probes)
	r.Metrics["transport.round_ms_p50"] = percentile(roundMS, 0.5)
	r.Metrics["transport.round_ms_p95"] = percentile(roundMS, 0.95)
	r.Correct = len(r.Failures) == 0
	return r, nil
}

// layerMetrics derives the span- and result-based per-layer metrics of one
// traced iteration. Names it leaves out do not apply to the workload.
func layerMetrics(w *workload, it traceIter) map[string]float64 {
	t, par := it.traced, it.par
	rounds := float64(t.Rounds)
	// sum adds up a seam's spans on every side.
	sum := func(name string) (st spanTotal) {
		for _, side := range []string{"", "ps/", "worker/"} {
			st.Count += t.Spans[side+name].Count
			st.Ns += t.Spans[side+name].Ns
		}
		return st
	}
	msPerRound := func(name string) float64 { return float64(sum(name).Ns) / 1e6 / rounds }
	train, build := sum(spanTrain), sum(spanBuild)
	m := map[string]float64{
		"nn.train_ms_per_round":      msPerRound(spanTrain),
		"nn.train_us_per_step":       float64(train.Ns) / 1e3 / float64(max(train.Count, 1)),
		"nn.train_steps_per_round":   float64(train.Count) / rounds,
		"nn.eval_ms_per_round":       msPerRound(spanEval),
		"zoo.build_ms_per_round":     msPerRound(spanBuild),
		"zoo.build_calls_per_round":  float64(build.Count) / rounds,
		"zoo.build_us_per_call":      float64(build.Ns) / 1e3 / float64(max(build.Count, 1)),
		"prune.plan_ms_per_round":    msPerRound(spanPlan),
		"prune.sparse_ms_per_round":  msPerRound(spanSparse),
		"prune.recover_ms_per_round": msPerRound(spanRecover),
		"data.next_ms_per_round":     msPerRound(spanNext),
		"data.sources_ms":            float64(sum(spanSources).Ns) / 1e6,

		"prune.assign_ms_per_round":   par.AssignS * 1e3 / float64(par.Rounds),
		"bandit.decide_ms_per_round":  par.DecideS * 1e3 / float64(par.Rounds),
		"simsched.events_per_round":   float64(par.Events) / float64(par.Rounds),
		"core.participants_per_round": float64(par.Participants) / float64(par.Rounds),
		"core.dropped_per_round":      float64(par.Dropped) / float64(par.Rounds),
		"core.final_loss":             par.FinalLoss,
		"core.s_to_target":            max(par.TargetS, 0),

		"trace.spans": float64(t.SpanCount),

		"host.rounds_per_wall_s": float64(par.Rounds) / par.WallS,
		"host.speed_index":       par.SpeedIndex,
	}
	base := par
	if !w.wire {
		base = it.serial
		m["core.self_ms_per_round"] = float64(t.SelfNs) / 1e6 / rounds
		m["core.par_speedup"] = (float64(par.Rounds) / par.WallS) / (float64(base.Rounds) / base.WallS)
	} else {
		var psNs, workerNs int64
		for name, st := range t.Spans {
			if strings.HasPrefix(name, "ps/") {
				psNs += st.Ns
			} else {
				workerNs += st.Ns
			}
		}
		ps, worker := float64(psNs)/1e6/rounds, float64(workerNs)/1e6/rounds
		m["transport.ps_busy_ms_per_round"] = ps
		m["transport.worker_busy_ms_per_round"] = worker
		m["transport.self_ms_per_round"] = t.WallS*1e3/rounds - ps - worker/wireWorkers
		var roundSum float64
		for _, ms := range par.RoundMS {
			roundSum += ms
		}
		m["transport.outside_round_ms"] = (par.WallS*1e3 - roundSum) / float64(par.Rounds)
		m["transport.down_kb_per_round"] = float64(par.DownBytes) / 1e3 / float64(par.Rounds)
		m["transport.up_kb_per_round"] = float64(par.UpBytes) / 1e3 / float64(par.Rounds)
	}
	m["trace.overhead_pct"] = (t.WallS - base.WallS) / base.WallS * 100
	return m
}

// contractLine is the one JSON object a run prints last.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int64                    `json:"attempted"`
	Failed    int64                    `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) line() contractLine {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]contractValue)}
	for _, d := range defs {
		line.Metrics[d.name] = contractValue{Value: r.Metrics[d.name], Unit: d.unit}
	}
	return line
}

// environment is recorded with every suite result.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
	Runs       int    `json:"runs"`
	RunSeconds int    `json:"run_seconds"`
}

// suiteResult is what the suite writes to <out>/result.json and -compare
// reads back.
type suiteResult struct {
	Env environment `json:"env"`
	// Runs are the untraced runs, in the order they ran; Traced holds one
	// traced run per workload.
	Runs   []*runResult `json:"runs"`
	Traced []*runResult `json:"traced"`
}

// values collects one end-to-end metric of one workload over the runs.
func (s *suiteResult) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if r.Workload == workload {
			xs = append(xs, r.Metrics[metric])
		}
	}
	return xs
}

// suite makes runs untraced runs of each selected workload — round-robin, so
// slow machine drift lands on all workloads alike — then one traced run each,
// and reports. It returns false if any correctness check failed.
func (h *harness) suite(selected []*workload, seed int64, runs int, seconds float64, stdout io.Writer) (bool, error) {
	res := &suiteResult{Env: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: h.procs, GoVersion: runtime.Version(),
		Kernel: tensor.KernelName(), Seed: seed, Runs: runs, RunSeconds: int(seconds),
	}}
	for i := 0; i < runs; i++ {
		for _, w := range selected {
			r, err := h.measure(w, seed+int64(i), seconds)
			if err != nil {
				return false, err
			}
			res.Runs = append(res.Runs, r)
			fmt.Fprintf(stdout, "# run %d/%d %s seed %d: %d reps, %.3f rounds/s (%.3f per wall second at speed index %.2f)\n",
				i+1, runs, w.name, r.Seed, r.Reps, r.Metrics["rounds_per_s"], r.Metrics["host.rounds_per_wall_s"], r.Metrics["host.speed_index"])
		}
	}
	for _, w := range selected {
		r, err := h.trace(w, seed, seconds)
		if err != nil {
			return false, err
		}
		res.Traced = append(res.Traced, r)
	}

	ok := true
	for _, w := range selected {
		fmt.Fprintf(stdout, "\n%s — %d runs, end to end (median of run medians; spread = quartile distance / median)\n", w.name, runs)
		for _, d := range endToEnd {
			xs := res.values(w.name, d.name)
			fmt.Fprintf(stdout, "  %-28s %14.6g %-9s spread %5.1f%%  bound %4.1f%%  n=%d\n",
				d.name, median(xs), d.unit, 100*quartileSpread(xs), 100*d.bound, len(xs))
		}
	}
	for _, r := range res.Traced {
		fmt.Fprintf(stdout, "\n%s — traced run, per layer (%d iterations)\n", r.Workload, r.Reps)
		for _, d := range perLayer {
			fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", d.name, r.Metrics[d.name], d.unit)
		}
	}
	fmt.Fprintln(stdout)
	for _, r := range append(append([]*runResult(nil), res.Runs...), res.Traced...) {
		fmt.Fprintf(stdout, "%s seed %d traced %v: %d of %d operations failed\n", r.Workload, r.Seed, r.Traced, r.Failed, r.Attempted)
		for _, f := range r.Failures {
			ok = false
			fmt.Fprintf(stdout, "FAIL %s seed %d: %s\n", r.Workload, r.Seed, f)
		}
	}

	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return false, err
	}
	path := filepath.Join(h.out, "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "wrote %s and %s\n", path, filepath.Join(h.out, "trace-<workload>.json"))
	return ok, nil
}

// run parses the flags and dispatches; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (required for a single run; a comma list filters the suite)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", runSeconds, "how long one run measures")
	traced := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	runs := fs.Int("runs", 0, "run the whole suite with this many runs per workload")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json, traces and scratch files")
	compare := fs.Bool("compare", false, "compare two suite results: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}

	var selected []*workload
	if *name == "" {
		selected = workloads
	} else {
		for _, n := range strings.Split(*name, ",") {
			w, err := workloadByName(n)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 2
			}
			selected = append(selected, w)
		}
	}
	h := &harness{rep: spawnRep, procs: min(runtime.NumCPU(), 4), out: *out, probeIters: probeIters, minReps: 3}
	if err := os.MkdirAll(h.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}

	if *runs > 0 {
		ok, err := h.suite(selected, *seed, *runs, float64(*seconds), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}

	if *name == "" || len(selected) != 1 {
		fmt.Fprintln(stderr, "benchmark: give -workload <name> for one run, or -runs <n> for the suite")
		return 2
	}
	var r *runResult
	var err error
	if *traced == 1 {
		r, err = h.trace(selected[0], *seed, float64(*seconds))
	} else {
		r, err = h.measure(selected[0], *seed, float64(*seconds))
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	for _, f := range r.Failures {
		fmt.Fprintln(stderr, "benchmark: FAIL:", f)
	}
	// A wrong result is reported through "correct", not the exit code: the
	// caller needs the line either way.
	if err := json.NewEncoder(stdout).Encode(r.line()); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return 0
}
