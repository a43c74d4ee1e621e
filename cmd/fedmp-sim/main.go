// Command fedmp-sim runs a single federated simulation and prints the
// evaluation trajectory, per-round statistics and summary.
//
// Usage:
//
//	fedmp-sim -model cnn -strategy fedmp -workers 10 -rounds 30
//	fedmp-sim -model alexnet -strategy synfl -level high -rounds 40
//	fedmp-sim -model lstm -strategy fedmp -rounds 40
//
// With -fixed-clock the real-time overhead columns (decision/pruning
// milliseconds) are charged from simclock.Fixed instead of the wall clock,
// making the entire output byte-reproducible for a given seed — the property
// the maporder lint rule and the seed-determinism test guard.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run (read
// them with `go tool pprof`); they are off by default and do not change a
// byte of the output.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"

	"fedmp"
	"fedmp/internal/cluster"
	"fedmp/internal/simclock"
)

// simOptions mirrors the flag set; runSim consumes it so tests drive the
// command in-process.
type simOptions struct {
	model, strategy, sync, level string
	nonIIDKind                   string
	nonIIDLevel                  int
	workers, rounds              int
	fixedRatio                   float64
	async                        bool
	asyncM                       int
	target, budget               float64
	evalEvery                    int
	seed                         int64
	crash                        float64
	downRounds                   int
	straggle, straggleFactor     float64
	blackout                     float64
	fixedClock                   bool
	quantizeWire                 bool
	population, cohort           int
	stream                       bool
}

// defaultSimOptions returns the flag defaults; main overrides from the
// command line, tests tweak fields directly.
func defaultSimOptions() simOptions {
	return simOptions{
		model:          "cnn",
		strategy:       "fedmp",
		sync:           "r2sp",
		workers:        10,
		rounds:         30,
		fixedRatio:     0.3,
		evalEvery:      2,
		seed:           1,
		downRounds:     2,
		straggleFactor: 3,
	}
}

func main() {
	d := defaultSimOptions()
	var o simOptions
	flag.StringVar(&o.model, "model", d.model, "cnn | alexnet | vgg | resnet | lstm")
	flag.StringVar(&o.strategy, "strategy", d.strategy, "fedmp | synfl | upfl | fedprox | flexcom | fixed")
	flag.StringVar(&o.sync, "sync", d.sync, "r2sp | bsp (pruning strategies)")
	flag.IntVar(&o.workers, "workers", d.workers, "number of workers")
	flag.IntVar(&o.rounds, "rounds", d.rounds, "round cap")
	flag.StringVar(&o.level, "level", d.level, "heterogeneity: low | medium | high (default: paper's A+B mix)")
	flag.StringVar(&o.nonIIDKind, "noniid", d.nonIIDKind, "non-IID scheme: label | missing")
	flag.IntVar(&o.nonIIDLevel, "noniid-level", d.nonIIDLevel, "non-IID level y")
	flag.Float64Var(&o.fixedRatio, "ratio", d.fixedRatio, "pruning ratio for -strategy fixed")
	flag.BoolVar(&o.async, "async", d.async, "asynchronous engine (Alg. 2)")
	flag.IntVar(&o.asyncM, "async-m", d.asyncM, "async aggregation size m (default workers/2)")
	flag.Float64Var(&o.target, "target", d.target, "stop at this test accuracy (0 = none)")
	flag.Float64Var(&o.budget, "budget", d.budget, "stop after this many virtual seconds (0 = none)")
	flag.IntVar(&o.evalEvery, "eval-every", d.evalEvery, "evaluate every k rounds")
	flag.Int64Var(&o.seed, "seed", d.seed, "random seed")
	flag.Float64Var(&o.crash, "crash", d.crash, "per-round device crash probability (fault injection)")
	flag.IntVar(&o.downRounds, "down-rounds", d.downRounds, "rounds a crashed device stays down")
	flag.Float64Var(&o.straggle, "straggle", d.straggle, "per-round transient straggler probability")
	flag.Float64Var(&o.straggleFactor, "straggle-factor", d.straggleFactor, "straggler completion-time multiplier")
	flag.Float64Var(&o.blackout, "blackout", d.blackout, "per-round link blackout probability")
	flag.BoolVar(&o.fixedClock, "fixed-clock", d.fixedClock, "charge overhead from a fixed clock for byte-reproducible output")
	flag.BoolVar(&o.quantizeWire, "quantize-wire", d.quantizeWire, "price and train with int8-quantized wire tensors when byte-cheaper")
	flag.IntVar(&o.population, "population", d.population, "device population size; each round samples a cohort from it (0 = fixed workers)")
	flag.IntVar(&o.cohort, "cohort", d.cohort, "per-round cohort size in population mode (default: -workers)")
	flag.BoolVar(&o.stream, "stream", d.stream, "stream metrics in constant memory (no per-round trajectory)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the run to this file")
	flag.Parse()

	if err := profiled(*cpuProfile, *memProfile, func() error { return runSim(o, os.Stdout) }); err != nil {
		log.Fatal(err)
	}
}

// profiled runs fn under the requested runtime/pprof profiles: a CPU profile
// covering the call, and an allocation profile (every allocation since
// process start, after a final collection) written when it returns. Empty
// paths profile nothing.
func profiled(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("fedmp-sim: closing %s: %v", cpuPath, err)
			}
		}()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPath == "" {
		return nil
	}
	f, err := os.Create(memPath)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSim executes one simulation and writes the trajectory and summary to w.
func runSim(o simOptions, w io.Writer) error {
	var fam fedmp.Family
	var err error
	if o.model == "lstm" {
		fam = fedmp.NewLanguageModelFamily()
	} else {
		fam, err = fedmp.NewImageFamily(o.model)
		if err != nil {
			return err
		}
	}
	cfg := fedmp.Config{
		Strategy:       fedmp.StrategyID(o.strategy),
		Sync:           fedmp.SyncScheme(o.sync),
		Workers:        o.workers,
		Rounds:         o.rounds,
		FixedRatio:     o.fixedRatio,
		Async:          o.async,
		AsyncM:         o.asyncM,
		TargetAccuracy: o.target,
		TimeBudget:     o.budget,
		EvalEvery:      o.evalEvery,
		Seed:           o.seed,
		QuantizeWire:   o.quantizeWire,
	}
	if o.fixedClock {
		cfg.Clock = simclock.Fixed{}
	}
	if o.nonIIDKind != "" {
		cfg.NonIID = fedmp.NonIID{Kind: o.nonIIDKind, Level: o.nonIIDLevel}
	}
	if o.crash > 0 || o.straggle > 0 || o.blackout > 0 {
		cfg.Faults = fedmp.FaultConfig{
			CrashProb:       o.crash,
			DownRounds:      o.downRounds,
			StragglerProb:   o.straggle,
			StragglerFactor: o.straggleFactor,
			BlackoutProb:    o.blackout,
			Seed:            o.seed + 31,
		}
	}
	if o.level != "" {
		sc, err := cluster.New(cluster.Level(o.level), o.workers, o.seed+7)
		if err != nil {
			return err
		}
		cfg.Scenario = sc
	}
	if o.population > 0 || o.cohort > 0 {
		// -cohort alone samples that many out of the worker count;
		// -population alone keeps the full worker count as the cohort.
		pop, cohort := o.population, o.cohort
		if pop == 0 {
			pop = o.workers
		}
		if cohort == 0 {
			cohort = o.workers
		}
		if cohort > pop {
			return fmt.Errorf("fedmp-sim: cohort %d exceeds population %d", cohort, pop)
		}
		cfg.Workers = cohort
		cfg.Population = &fedmp.Population{Size: pop}
	}
	cfg.StreamMetrics = o.stream
	res, err := fedmp.Run(fam, cfg)
	if err != nil {
		return err
	}

	if res.Config.Population != nil {
		fmt.Fprintf(w, "%s / %s: cohort %d of %d devices, %d rounds, %.0f virtual seconds\n\n",
			fam.Name(), o.strategy, res.Config.Workers, res.Config.Population.Size, res.Rounds, res.Time)
	} else {
		fmt.Fprintf(w, "%s / %s: %d workers, %d rounds, %.0f virtual seconds\n\n",
			fam.Name(), o.strategy, o.workers, res.Rounds, res.Time)
	}
	if res.Stream != nil {
		streamSummary(w, res)
		return nil
	}
	fmt.Fprintln(w, "round  time(s)    loss    metric")
	for _, p := range res.Points {
		fmt.Fprintf(w, "%5d  %7.0f  %6.4f  %s\n", p.Round, p.Time, p.Loss, metricString(fam, p))
	}
	fmt.Fprintln(w)
	summarize(w, res)
	return nil
}

// streamSummary prints the constant-memory aggregates a -stream run keeps
// instead of a trajectory.
func streamSummary(w io.Writer, res *fedmp.Result) {
	s := res.Stream
	fmt.Fprintf(w, "streamed over %d rounds (%d scheduler events)\n", s.Rounds, res.Events)
	fmt.Fprintf(w, "round time: mean %.1fs, p50 %.1fs, p95 %.1fs, p99 %.1fs\n",
		s.RoundTime.Mean, s.RoundTimeP50.Value(), s.RoundTimeP95.Value(), s.RoundTimeP99.Value())
	fmt.Fprintf(w, "per-round means: compute %.1fs, communication %.1fs, %.1f participants\n",
		s.CompTime.Mean, s.CommTime.Mean, s.Participants.Mean)
	fmt.Fprintf(w, "traffic: %.1f MB down, %.1f MB up\n", float64(s.DownBytes)/1e6, float64(s.UpBytes)/1e6)
	if s.Dropped > 0 || s.Suspect > 0 {
		fmt.Fprintf(w, "participation losses: %d assignments dropped, %d worker-rounds suspect\n", s.Dropped, s.Suspect)
	}
	fmt.Fprintf(w, "last eval: round %d, loss %.4f, acc %.3f (best %.3f)\n",
		s.LastRound, s.LastLoss, s.LastAcc, s.BestAcc)
}

func metricString(fam fedmp.Family, p fedmp.Point) string {
	if fam.Metric() == "perplexity" {
		return fmt.Sprintf("ppl %.2f", math.Exp(p.Loss))
	}
	return fmt.Sprintf("acc %.3f", p.Acc)
}

func summarize(w io.Writer, res *fedmp.Result) {
	var comp, comm, dec, pr float64
	var down, up int64
	var dropped, suspect int
	for _, st := range res.Stats {
		comp += st.CompTime
		comm += st.CommTime
		dec += st.DecisionSeconds
		pr += st.PruneSeconds
		down += st.DownBytes
		up += st.UpBytes
		dropped += st.Dropped
		suspect += st.Suspect
	}
	n := float64(len(res.Stats))
	if n == 0 {
		return
	}
	fmt.Fprintf(w, "per-round means: compute %.1fs, communication %.1fs\n", comp/n, comm/n)
	fmt.Fprintf(w, "traffic: %.1f MB down, %.1f MB up\n", float64(down)/1e6, float64(up)/1e6)
	fmt.Fprintf(w, "algorithm overhead (real): %.2f ms decision + %.2f ms pruning per round\n",
		1000*dec/n, 1000*pr/n)
	if dropped > 0 || suspect > 0 {
		fmt.Fprintf(w, "participation losses: %d assignments dropped, %d worker-rounds suspect\n", dropped, suspect)
	}
	if !math.IsInf(res.TimeToTargetAcc, 1) {
		fmt.Fprintf(w, "target accuracy reached at %.0f virtual seconds\n", res.TimeToTargetAcc)
	}
}
