//go:build !race

package core

import (
	"runtime"
	"testing"

	"fedmp/internal/data"
	"fedmp/internal/zoo"
)

// The file is excluded under the race detector, whose sync.Pool drops pooled
// items at random, so a pooled workspace (the LSTM's weight packs) is
// reallocated now and then.

// TestEvaluateSteadyStateAllocs: an evaluation re-dimensions the executor's
// network back to the full model from whatever sub-model it trained last,
// loads the global weights and evaluates the test batch a chunk at a time,
// tail chunk included, through the executor's own sub-batch header — on one
// executor without a single allocation (on more, shard's goroutines are the
// only ones).
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	lm := NewLMFamily(zoo.DefaultLMConfig(), data.CorpusConfig{Vocab: 80, Branch: 6, TrainSize: 6000, TestSize: 2000, Seed: 105})
	for _, fam := range []Family{tinyFamily(), lm} {
		cfg := quickCfg(StrategyFedMP, 1) // 120 examples: a chunk and a tail
		cfg.StreamMetrics = true
		d, err := NewDriver(fam, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, desc, _, err := fam.MakePlan(d.global, 0.5, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		local := d.localNets(1)[0]
		run := func() {
			if _, _, err := local.Get(desc, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := d.evaluate(1, 0); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(20, run); got != 0 {
			t.Errorf("%s: a warm evaluation allocates %v times, want 0", fam.Name(), got)
		}
	}
}
