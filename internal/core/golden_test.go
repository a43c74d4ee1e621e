package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"fedmp/internal/cluster"
	"fedmp/internal/data"
	"fedmp/internal/simclock"
	"fedmp/internal/zoo"
)

var update = flag.Bool("update", false, "rewrite testdata/run-grid.golden from the current results")

// goldenCase is one row of the trajectory grid: a config run on a family,
// resumed from its own closing state when resumeTo is set.
type goldenCase struct {
	name     string
	fam      Family
	cfg      Config
	resumeTo int
}

// goldenGrid is the committed form of the "hash grid" every refactor of the
// round loop used to rebuild by hand: every shape the asynchronous engine
// runs in, plus a representative synchronous set. All rows use a fixed clock
// that charges 1 ms per stopwatch, so the overhead columns are pinned too.
func goldenGrid() []goldenCase {
	tiny := tinyFamily()
	lm := NewLMFamily(zoo.LMConfig{Vocab: 20, Embed: 6, Hidden: 8, SeqLen: 6},
		data.CorpusConfig{Vocab: 20, Branch: 3, TrainSize: 3000, TestSize: 400, Seed: 105})
	base := func(id StrategyID, workers, rounds int) Config {
		cfg := quickCfg(id, rounds)
		cfg.Workers = workers
		cfg.FixedRatio = 0.5
		cfg.Clock = simclock.Fixed{PerCall: 0.001}
		return cfg
	}
	async := func(id StrategyID, workers, m, rounds int) Config {
		cfg := base(id, workers, rounds)
		cfg.Async, cfg.AsyncM = true, m
		return cfg
	}
	var grid []goldenCase
	add := func(name string, fam Family, cfg Config, mutate ...func(*Config)) {
		for _, f := range mutate {
			f(&cfg)
		}
		grid = append(grid, goldenCase{name: name, fam: fam, cfg: cfg})
	}

	all := append([]StrategyID{StrategyFixed}, StrategyIDs...)
	for _, id := range all {
		for _, m := range []int{1, 2, 4} {
			if id == StrategyUPFL && m < 4 {
				// At the commit this grid was generated at, UP-FL's shared
				// agent panicked on partial rounds (a second Select after a
				// round of warm-up arrivals), so there was nothing to pin;
				// TestUPFLHoldsItsPullThroughUnrewardedRounds covers them.
				continue
			}
			add(fmt.Sprintf("async/%s/m%d", id, m), tiny, async(id, 4, m, 6))
		}
	}
	// The one-behind dispatch numbering shows at the warm-up boundary.
	for _, id := range []StrategyID{StrategyFedMP, StrategyFixed} {
		add(fmt.Sprintf("async/%s/warmup2", id), tiny, async(id, 4, 2, 8), func(c *Config) { c.WarmupRounds = 2 })
	}
	add("async/upfl/warmup2", tiny, async(StrategyUPFL, 4, 4, 8), func(c *Config) { c.WarmupRounds = 2 })
	for _, f := range []struct {
		name   string
		faults cluster.FaultConfig
	}{
		{"crash", cluster.FaultConfig{Seed: 21, CrashProb: 0.3, DownRounds: 2}},
		{"blackout", cluster.FaultConfig{Seed: 22, BlackoutProb: 0.3}},
		{"straggler", cluster.FaultConfig{Seed: 23, StragglerProb: 0.4, StragglerFactor: 3}},
		{"mixed", cluster.FaultConfig{Seed: 11, CrashProb: 0.1, StragglerProb: 0.2, StragglerFactor: 2, BlackoutProb: 0.1, DownRounds: 1}},
	} {
		add("async/fedmp/faults-"+f.name, tiny, async(StrategyFedMP, 6, 3, 12), func(c *Config) { c.Faults = f.faults })
	}
	add("async/synfl/faults-all-lost", tiny, async(StrategySynFL, 3, 1, 10), func(c *Config) {
		c.Faults = cluster.FaultConfig{Seed: 5, BlackoutProb: 0.9}
	})
	add("async/fedmp/quantize-wire", tiny, async(StrategyFedMP, 4, 2, 6), func(c *Config) { c.QuantizeWire = true })
	add("async/flexcom/quantize-wire", tiny, async(StrategyFlexCom, 4, 2, 6), func(c *Config) { c.QuantizeWire = true })
	add("async/fedmp/quantize-residuals", tiny, async(StrategyFedMP, 4, 2, 6), func(c *Config) { c.QuantizeResiduals = true })
	add("async/fedmp/bsp", tiny, async(StrategyFedMP, 4, 2, 6), func(c *Config) { c.Sync = SyncBSP })
	add("async/fedmp/stream", tiny, async(StrategyFedMP, 4, 2, 6), func(c *Config) { c.StreamMetrics = true })
	add("async/fedmp/eval-every-3", tiny, async(StrategyFedMP, 4, 2, 8), func(c *Config) { c.EvalEvery = 3 })
	add("async/synfl/target-acc", tiny, async(StrategySynFL, 4, 2, 0), func(c *Config) { c.TargetAccuracy = 0.5; c.EvalEvery = 2 })
	add("async/synfl/target-loss", tiny, async(StrategySynFL, 4, 2, 0), func(c *Config) { c.TargetLoss = 1.2 })
	add("async/fedmp/time-budget", tiny, async(StrategyFedMP, 4, 2, 0), func(c *Config) { c.TimeBudget = 0.2 })
	add("async/fedmp/non-iid", tiny, async(StrategyFedMP, 4, 2, 6), func(c *Config) { c.NonIID = NonIID{Kind: "missing", Level: 2} })
	// The §V-A deadline and FailureRate do not apply to Alg. 2: setting
	// them must change nothing but Result.Config.
	add("async/fedmp/deadline-ignored", tiny, async(StrategyFedMP, 4, 2, 6), func(c *Config) {
		c.FaultTolerance, c.FailureRate = true, 0.3
	})
	add("async/fedmp/scenario", tiny, async(StrategyFedMP, 4, 3, 6), func(c *Config) { c.Scenario = cluster.Custom(2, 1, 1, 5) })
	// Past round 64 the round varint in the priced frames changes width.
	add("async/lm/fedmp/70-rounds", lm, async(StrategyFedMP, 4, 2, 70), func(c *Config) { c.EvalEvery = 10 })
	add("async/lm/upfl/m-all", lm, async(StrategyUPFL, 3, 3, 6))

	for _, id := range all {
		add(fmt.Sprintf("sync/%s", id), tiny, base(id, 4, 4))
	}
	population := func(c *Config) {
		c.Workers = 6
		c.Population = &cluster.Population{
			Size:    200,
			Diurnal: cluster.Diurnal{Period: 6, OnFraction: 0.8},
			Outage:  cluster.Outage{Regions: 4, Prob: 0.15, Period: 3, Duration: 1.5},
		}
	}
	add("sync/fedmp/population", tiny, base(StrategyFedMP, 4, 5), population)
	add("sync/fedmp/population-stream", tiny, base(StrategyFedMP, 4, 5), population, func(c *Config) { c.StreamMetrics = true })
	add("sync/fedmp/population-dark", tiny, base(StrategyFedMP, 3, 6), func(c *Config) {
		c.Population = &cluster.Population{Size: 40, Outage: cluster.Outage{Regions: 1, Prob: 0.6, Period: 2, Duration: 1.5}}
	})
	add("sync/fedmp/failure-deadline", tiny, base(StrategyFedMP, 6, 6), func(c *Config) {
		c.FaultTolerance, c.FailureRate = true, 0.3
	})
	add("sync/fedmp/faults-deadline-q8", tiny, base(StrategyFedMP, 6, 8), func(c *Config) {
		c.FaultTolerance, c.FailureRate, c.QuantizeWire = true, 0.2, true
		c.Faults = cluster.FaultConfig{Seed: 11, CrashProb: 0.2, StragglerProb: 0.2, StragglerFactor: 2, BlackoutProb: 0.1, DownRounds: 2}
	})
	// Rounds nobody survives: the synchronous idle path.
	for _, id := range []StrategyID{StrategySynFL, StrategyFedMP} {
		add(fmt.Sprintf("sync/%s/faults-all-lost", id), tiny, base(id, 3, 8), func(c *Config) {
			c.Faults = cluster.FaultConfig{Seed: 5, BlackoutProb: 0.9}
		})
	}
	add("sync/fedmp/bsp", tiny, base(StrategyFedMP, 4, 4), func(c *Config) { c.Sync = SyncBSP })
	add("sync/fedmp/quantize-residuals", tiny, base(StrategyFedMP, 4, 4), func(c *Config) { c.QuantizeResiduals = true })
	add("sync/flexcom/quantize-wire", tiny, base(StrategyFlexCom, 4, 4), func(c *Config) { c.QuantizeWire = true })
	add("sync/upfl/warmup2-eval-every-3", tiny, base(StrategyUPFL, 4, 7), func(c *Config) { c.WarmupRounds = 2; c.EvalEvery = 3 })
	add("sync/synfl/target-acc", tiny, base(StrategySynFL, 4, 0), func(c *Config) { c.TargetAccuracy = 0.5 })
	add("sync/lm/fedmp", lm, base(StrategyFedMP, 3, 5))
	grid = append(grid, goldenCase{name: "sync/fedmp/resume-3-to-6", fam: tiny, cfg: base(StrategyFedMP, 4, 3), resumeTo: 6})
	return grid
}

// goldenHash is a SHA-256 over everything a run produced: resultFingerprint
// (every Point and RoundStat, the closing scalars, the streaming aggregates
// and the resumable State), the overhead columns resultFingerprint masks,
// and the final global model bit for bit.
func goldenHash(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintln(h, resultFingerprint(t, res))
	for _, st := range res.Stats {
		fmt.Fprintf(h, "%x %x\n", math.Float64bits(st.DecisionSeconds), math.Float64bits(st.PruneSeconds))
	}
	if res.State == nil {
		t.Fatal("run exported no State")
	}
	for _, g := range res.State.Global {
		for _, v := range g.Data {
			fmt.Fprintf(h, "%x ", math.Float32bits(v))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRunGridGolden pins the trajectories: one hash per grid row, compared
// against testdata/run-grid.golden (regenerate with `go test
// ./internal/core -run RunGridGolden -update` — only in a PR that means to
// move numerics, and say so). A refactor of the round loop passes this file
// unmodified or it changed behaviour.
func TestRunGridGolden(t *testing.T) {
	var got strings.Builder
	for _, tc := range goldenGrid() {
		res, err := Run(tc.fam, tc.cfg)
		if err == nil && tc.resumeTo > 0 {
			resumed := tc.cfg
			resumed.Rounds = tc.resumeTo
			res, err = RunFrom(tc.fam, resumed, res.State)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&got, "%s %s\n", tc.name, goldenHash(t, res))
	}
	path := filepath.Join("testdata", "run-grid.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory hashes differ on %s: the golden file pins amd64 float results", runtime.GOARCH)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(wantLines) != len(gotLines) {
		t.Errorf("grid has %d rows, %s has %d (regenerate with -update only if the grid itself changed)", len(gotLines), path, len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("trajectory moved:\n  got  %s\n  want %s", gotLines[i], wantLines[i])
		}
	}
}
