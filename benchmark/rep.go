package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fedmp/internal/core"
)

// repSpec tells a child process which rep to run. One rep is one complete
// execution of a workload: set-up, then the Run/Serve call.
type repSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Rounds overrides the workload's round count (tests run 2); 0 keeps it.
	Rounds int `json:"rounds,omitempty"`
	// Procs is the child's GOMAXPROCS.
	Procs int `json:"procs"`
	// TraceTo, when set, runs the rep traced and writes the spans there.
	TraceTo string `json:"trace_to,omitempty"`
	// Gauge runs the speed gauge beside the Run/Serve call: in every rep at
	// nproc, and in none at GOMAXPROCS=1, where its 2.5 % of the core would
	// land in the traced run's self time.
	Gauge bool `json:"gauge,omitempty"`
	// ProbeIters, when set, asks for the layer probes in place of a rep,
	// each timing at least that many calls.
	ProbeIters int `json:"probe_iters,omitempty"`
	// Scratch is where the wire workload makes its checkpoint directory.
	Scratch string `json:"scratch"`
	// SpawnedAt is when the parent started the child (Unix ns): set-up time
	// counts from process start, not from main.
	SpawnedAt int64 `json:"spawned_at"`
}

// repResult is everything one rep measured. Host-clock fields say so; the
// rest are the run's own (modelled) results.
type repResult struct {
	Workload string `json:"workload"`
	Procs    int    `json:"procs"`
	Traced   bool   `json:"traced"`

	// SetupS is process start → the call into core.Run / transport.Serve
	// (host seconds): dataset synthesis, family, and on the wire sources,
	// checkpoint directory, port and worker goroutines.
	SetupS float64 `json:"setup_s"`
	// WallS, CPUS and AllocBytes cover the Run/Serve call (host): engine
	// initialisation, evaluation and checkpointing included.
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	// SpeedIndex is how much slower than on the quiet reference machine the
	// speed gauge's work ran during the Run/Serve call, over GaugeSamples
	// samples (0 where the spec asked for no gauge).
	SpeedIndex   float64 `json:"speed_index,omitempty"`
	GaugeSamples int     `json:"gauge_samples,omitempty"`
	// PeakRSSKB is the process's VmHWM after the run (0 where /proc is
	// missing).
	PeakRSSKB int64 `json:"peak_rss_kb"`

	Rounds int `json:"rounds"`
	// ResultS is Result.Time: virtual seconds in the simulator, the server's
	// wall clock on the wire.
	ResultS   float64 `json:"result_s"`
	Loss0     float64 `json:"loss0"`
	FinalLoss float64 `json:"final_loss"`
	BestAcc   float64 `json:"best_acc"`
	// TargetS is the Time of the first evaluation that met the workload's
	// target (-1 if none, or if the run streams its metrics).
	TargetS   float64 `json:"target_s"`
	DownBytes int64   `json:"down_bytes"`
	UpBytes   int64   `json:"up_bytes"`
	Events    int64   `json:"events"`
	// Ops counts worker assignments issued (participants + dropped +
	// suspect-skipped) plus worker goroutines that returned an error;
	// FailedOps is all of those but the participants.
	Ops          int64 `json:"ops"`
	FailedOps    int64 `json:"failed_ops"`
	Participants int64 `json:"participants"`
	Dropped      int64 `json:"dropped"`

	// RoundMS are the per-round times the server reported (wire only).
	RoundMS []float64 `json:"round_ms,omitempty"`
	// DecideS and AssignS sum RoundStat.DecisionSeconds / PruneSeconds (host
	// seconds the strategy measured itself; simulator without streaming).
	DecideS float64 `json:"decide_s"`
	AssignS float64 `json:"assign_s"`

	// Spans are the traced run's seam totals; SelfNs the root span's self
	// time; SpanCount the number of spans recorded.
	Spans     map[string]spanTotal `json:"spans,omitempty"`
	SelfNs    int64                `json:"self_ns,omitempty"`
	SpanCount int                  `json:"span_count,omitempty"`

	// Probes are the probe metrics, when the spec asked for them.
	Probes map[string]float64 `json:"probes,omitempty"`

	// Failures lists the correctness checks this rep failed.
	Failures []string `json:"failures,omitempty"`
}

// fingerprint identifies a simulator result; it must be identical across
// reps, GOMAXPROCS values and traced/untraced runs of one seed.
func (r *repResult) fingerprint() string {
	return fmt.Sprintf("rounds=%d time=%x loss=%x down=%d up=%d events=%d",
		r.Rounds, math.Float64bits(r.ResultS), math.Float64bits(r.FinalLoss), r.DownBytes, r.UpBytes, r.Events)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSKB reads VmHWM from /proc/self/status.
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0
			}
			return kb
		}
	}
	return 0
}

// runRep executes one rep in this process and checks its result.
func runRep(spec repSpec) (*repResult, error) {
	w, err := workloadByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	if spec.Procs > 0 {
		runtime.GOMAXPROCS(spec.Procs)
	}
	rounds := w.rounds
	if spec.Rounds > 0 {
		rounds = spec.Rounds
	}
	out := &repResult{Workload: w.name, Procs: runtime.GOMAXPROCS(0), Traced: spec.TraceTo != ""}
	if spec.ProbeIters > 0 {
		out.Probes, err = runProbes(w, spec.Seed, spec.Scratch, spec.ProbeIters)
		return out, err
	}

	fam, err := w.family(spec.Seed)
	if err != nil {
		return nil, err
	}
	cfg := w.config(spec.Seed)
	cfg.Rounds = rounds
	psFam, workerFam := fam, fam
	var tr *tracer
	if out.Traced {
		tr = newTracer()
		if w.wire {
			psFam = &tracedFamily{Family: fam, t: tr, side: "ps"}
			workerFam = &tracedFamily{Family: fam, t: tr, side: "worker"}
		} else {
			psFam = &tracedFamily{Family: fam, t: tr}
		}
	}

	var m0, m1 runtime.MemStats
	var t0 time.Time
	var cpu0 float64
	var gauge *speedGauge
	entered := func() {
		out.SetupS = float64(time.Now().UnixNano()-spec.SpawnedAt) / 1e9
		// The gauge's own set-up belongs to neither side.
		if spec.Gauge {
			gauge = startSpeedGauge()
		}
		runtime.ReadMemStats(&m0)
		cpu0 = cpuSeconds()
		t0 = time.Now()
		if tr != nil {
			tr.start()
		}
	}
	var res *core.Result
	var wire wireRun
	if w.wire {
		res, wire, err = serveLoopback(psFam, workerFam, cfg, rounds, spec.Scratch, entered)
	} else {
		entered()
		res, err = core.Run(psFam, cfg)
	}
	// On the wire the interval also covers waiting for the workers to leave
	// and re-reading the checkpoint; both are a few ms against seconds.
	out.WallS = time.Since(t0).Seconds()
	out.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	if gauge != nil {
		out.SpeedIndex, out.GaugeSamples = gauge.stop()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	out.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	out.PeakRSSKB = peakRSSKB()
	if tr != nil {
		tr.finish()
		out.Spans = tr.totals()
		out.SelfNs = selfNs(tr.spans[0], tr.spans[1:])
		out.SpanCount = len(tr.spans)
		if err := os.MkdirAll(filepath.Dir(spec.TraceTo), 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(spec.TraceTo, fmt.Sprintf("%s/seed-%d", w.name, spec.Seed)); err != nil {
			return nil, err
		}
	}

	out.fill(w, res)
	out.Ops += int64(wire.workerErrs)
	out.FailedOps += int64(wire.workerErrs)
	out.check(w, rounds, wire)
	return out, nil
}

// fill copies the run's own results out of the core.Result.
func (r *repResult) fill(w *workload, res *core.Result) {
	r.Rounds = res.Rounds
	r.ResultS = res.Time
	r.FinalLoss = res.FinalLoss
	r.Events = res.Events
	r.TargetS = -1
	var suspect int64
	if st := res.Stream; st != nil {
		r.BestAcc = st.BestAcc
		r.DownBytes, r.UpBytes = st.DownBytes, st.UpBytes
		r.Participants = int64(math.Round(st.Participants.Sum()))
		r.Dropped, suspect = st.Dropped, st.Suspect
	} else {
		for _, s := range res.Stats {
			r.DownBytes += s.DownBytes
			r.UpBytes += s.UpBytes
			r.Participants += int64(s.Participants)
			r.Dropped += int64(s.Dropped)
			suspect += int64(s.Suspect)
			r.DecideS += s.DecisionSeconds
			r.AssignS += s.PruneSeconds
			if w.wire {
				r.RoundMS = append(r.RoundMS, s.Time*1e3)
			}
		}
		if len(res.Points) > 0 {
			r.Loss0 = res.Points[0].Loss
		}
		for _, p := range res.Points {
			r.BestAcc = math.Max(r.BestAcc, p.Acc)
			if r.TargetS < 0 && p.Round > 0 && w.target(p, r.Loss0) {
				r.TargetS = p.Time
			}
		}
	}
	r.Ops = r.Participants + r.Dropped + suspect
	r.FailedOps = r.Dropped + suspect
}

// check records the rep-level correctness failures.
func (r *repResult) check(w *workload, rounds int, wire wireRun) {
	fail := func(format string, args ...any) {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	if r.Rounds != rounds {
		fail("completed %d of %d rounds", r.Rounds, rounds)
	}
	if r.FailedOps != 0 {
		fail("%d of %d operations failed", r.FailedOps, r.Ops)
	}
	if math.IsNaN(r.FinalLoss) || math.IsInf(r.FinalLoss, 0) {
		fail("final loss is %v", r.FinalLoss)
	}
	if w.wire {
		if wire.ckptRound != rounds {
			fail("checkpoint recovers round %d, want %d", wire.ckptRound, rounds)
		}
		if !wire.ckptShapesOK {
			fail("recovered model does not have the model's tensor shapes")
		}
	}
	// The quality targets need the workload's full round count.
	if rounds < w.rounds {
		return
	}
	if w.target == nil {
		if r.BestAcc < w.minBestAcc {
			fail("best accuracy %.3f < %.2f", r.BestAcc, w.minBestAcc)
		}
	} else if r.TargetS < 0 {
		fail("quality target not reached (loss %.4f -> %.4f, best acc %.3f)", r.Loss0, r.FinalLoss, r.BestAcc)
	}
}
