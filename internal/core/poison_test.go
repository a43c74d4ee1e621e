package core

import (
	"math"
	"os"
	"testing"

	"fedmp/internal/tensor"
)

// TestMain runs every test of the package with poisonClosed on: each closed
// round's delivered NewWeights and lost Weights are NaN by the time the next
// round is assigned, so the golden grid, the async and population runs and
// every other Drive hold the slots' buffers to their one-round lifetime.
func TestMain(m *testing.M) {
	poisonClosed = true
	os.Exit(m.Run())
}

// aliasingSynFL is Syn-FL whose mean of a single output is that output's
// NewWeights themselves — bit for bit the mean, but a global model that
// lives in a worker slot's upload buffer past its round.
type aliasingSynFL struct{ Strategy }

func (s aliasingSynFL) Aggregate(info *RoundInfo, outs []Output, dropped []Assignment) ([]*tensor.Tensor, error) {
	if len(outs) == 1 {
		return outs[0].NewWeights, nil
	}
	return s.Strategy.Aggregate(info, outs, dropped)
}

// TestPoisonClosedCatchesAReadAfterClose gives the hook its teeth: under
// Alg. 2 with m = 1 every round aggregates one output, so the aliasing
// strategy's global model is a slot's upload buffer. Unpoisoned, the next
// dispatch copies it before anything overwrites it and the run stays finite;
// poisoned, every dispatch after the first close starts from NaN, and once
// the initial dispatch has surfaced so does the global model.
func TestPoisonClosedCatchesAReadAfterClose(t *testing.T) {
	defer func() { poisonClosed = true }()
	run := func(poison bool) float64 {
		poisonClosed = poison
		cfg := quickCfg(StrategySynFL, 10)
		cfg.Workers, cfg.Async, cfg.AsyncM = 4, true, 1
		r, err := newRunner(tinyFamily(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.strategy = aliasingSynFL{r.strategy}
		res, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalLoss
	}
	if loss := run(false); math.IsNaN(loss) {
		t.Fatalf("unpoisoned aliasing run ends at loss %v; the test has no baseline", loss)
	}
	if loss := run(true); !math.IsNaN(loss) {
		t.Errorf("poisoned aliasing run ends at loss %v; the hook misses a global model read after its round closed", loss)
	}
}
