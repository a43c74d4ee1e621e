package experiment

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fedmp/internal/core"
	"fedmp/internal/data"
	"fedmp/internal/metrics"
	"fedmp/internal/zoo"
)

// orderRenders is how often TestFig4AndTable4CellsKeepTheirPlace renders
// each artefact. Go starts an iteration over a map of at most eight entries
// at a random one of its eight slots, so a map of two keys comes out in
// insertion order with probability 7/8 (three keys: 3/4). A render that took
// its columns or rows from such a map passes all 320 renders with probability
// below (7/8)^320 < 2^-61.
const orderRenders = 320

// TestFig4AndTable4CellsKeepTheirPlace renders Fig. 4 over two models and
// Table IV over three strategies from synthetic results parked in the lab
// cache, so nothing is simulated, and demands that each cell sits under its
// own column (Fig. 4) or in its own row (Table IV). Quick mode sweeps one
// model, so no other test reads either order.
func TestFig4AndTable4CellsKeepTheirPlace(t *testing.T) {
	l := newLab(Options{Seed: 1, MaxParallel: 1, Logf: func(format string, args ...any) {
		t.Fatalf("cache miss, the test would simulate: "+format, args...)
	}})
	l.lm = core.NewLMFamily(zoo.LMConfig{Vocab: 30, Embed: 8, Hidden: 12, SeqLen: 8},
		data.CorpusConfig{Vocab: 30, Branch: 4, TrainSize: 800, TestSize: 120, Seed: 105})

	// Fig. 4: the CNN reaches its target at θ index i after i+1 seconds, the
	// AlexNet after 6-i, so the normalised cells of row i are i+1 and 6-i.
	models := l.sweepModels()
	if !slices.Equal(models, []zoo.ModelID{zoo.ModelCNN, zoo.ModelAlexNet}) {
		t.Fatalf("full-mode Fig. 4 sweeps %v, want cnn and alexnet", models)
	}
	want4 := make([][]string, len(fig4Thetas))
	for i, theta := range fig4Thetas {
		want4[i] = []string{fmt.Sprintf("%.2f", theta), fmt.Sprintf("%.2f", float64(i+1)), fmt.Sprintf("%.2f", float64(len(fig4Thetas)-i))}
		for j, m := range models {
			_, _, key, err := l.specConfig(runSpec{model: m, strategy: core.StrategyFedMP, theta: theta, rounds: l.params(m).rounds * 3 / 2})
			if err != nil {
				t.Fatal(err)
			}
			at := float64(i + 1)
			if j == 1 {
				at = float64(len(fig4Thetas) - i)
			}
			l.cache[key] = &core.Result{Points: []core.Point{{Time: at, Acc: 1}}}
		}
	}

	// Table IV: Syn-FL's budget is 70 s and its target loss 1.5, which it
	// reaches at 100 s; UP-FL reaches 1.2 at 20 s and FedMP 1.1 at 10 s.
	curves := map[core.StrategyID][]core.Point{
		core.StrategySynFL: {{Time: 0, Loss: 3}, {Time: 50, Loss: 2}, {Time: 100, Loss: 1}},
		core.StrategyUPFL:  {{Time: 0, Loss: 3}, {Time: 20, Loss: 1.2}},
		core.StrategyFedMP: {{Time: 0, Loss: 3}, {Time: 10, Loss: 1.1}},
	}
	for strat, pts := range curves {
		last := pts[len(pts)-1]
		l.cache["lstm/"+string(strat)+"/r=40"] = &core.Result{Points: pts, Time: last.Time, FinalLoss: last.Loss}
	}
	row := func(strat core.StrategyID, loss, at float64) []string {
		return []string{string(strat), fmt.Sprintf("%.2f", math.Exp(loss)), metrics.Speedup(100, at)}
	}
	want4b := [][]string{row(core.StrategySynFL, 2, 100), row(core.StrategyUPFL, 1.2, 20), row(core.StrategyFedMP, 1.1, 10)}

	for range orderRenders {
		for _, c := range []struct {
			name   string
			render func(*lab) (*Report, error)
			want   [][]string
		}{{"Fig. 4", runFig4, want4}, {"Table IV", runTable4, want4b}} {
			rep, err := c.render(l)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Tables[0].Rows; !slices.EqualFunc(got, c.want, slices.Equal[[]string]) {
				t.Fatalf("%s rows:\n got %q\nwant %q", c.name, got, c.want)
			}
		}
	}
}
