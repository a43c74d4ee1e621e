// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus micro-benchmarks of the hot paths. The artefact benchmarks run the
// experiment harness in quick mode (reduced models/rounds); the full-scale
// artefacts are produced by `go run ./cmd/fedmp-bench -exp all` and recorded
// in EXPERIMENTS.md.
package fedmp

import (
	"io"
	"math/rand"
	"testing"

	"fedmp/internal/bandit"
	"fedmp/internal/core"
	"fedmp/internal/experiment"
	"fedmp/internal/nn"
	"fedmp/internal/prune"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// benchArtefact regenerates one paper artefact in quick mode.
func benchArtefact(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiment.Run(id, experiment.Options{Quick: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		WriteReport(io.Discard, rep)
	}
}

func BenchmarkTable2Modes(b *testing.B) { benchArtefact(b, "table2") }
func BenchmarkFigure2(b *testing.B)     { benchArtefact(b, "fig2") }
func BenchmarkFigure3(b *testing.B)     { benchArtefact(b, "fig3") }
func BenchmarkFigure4(b *testing.B)     { benchArtefact(b, "fig4") }
func BenchmarkFigure5(b *testing.B)     { benchArtefact(b, "fig5") }
func BenchmarkTable3(b *testing.B)      { benchArtefact(b, "table3") }
func BenchmarkFigure6(b *testing.B)     { benchArtefact(b, "fig6") }
func BenchmarkFigure7(b *testing.B)     { benchArtefact(b, "fig7") }
func BenchmarkFigure8(b *testing.B)     { benchArtefact(b, "fig8") }
func BenchmarkFigure9(b *testing.B)     { benchArtefact(b, "fig9") }
func BenchmarkFigure10(b *testing.B)    { benchArtefact(b, "fig10") }
func BenchmarkFigure11(b *testing.B)    { benchArtefact(b, "fig11") }
func BenchmarkFigure12(b *testing.B)    { benchArtefact(b, "fig12") }
func BenchmarkTable4(b *testing.B)      { benchArtefact(b, "table4") }

// --- Micro-benchmarks of the library's hot paths ---

func BenchmarkConvForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := tensor.ConvGeom{InC: 16, InH: 16, InW: 16, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := nn.NewConv2D("c", g, rng)
	x := tensor.RandN(rng, 8, 16, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, true)
	}
}

func BenchmarkTrainStepCNN(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	spec := zoo.CNNSpec()
	net, err := zoo.Build(spec, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.RandN(rng, 8, spec.InC, spec.InH, spec.InW)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = rng.Intn(spec.Classes)
	}
	batch := &nn.Batch{X: x, Labels: labels}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainStep(batch)
	}
}

func BenchmarkLSTMTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	cfg := zoo.DefaultLMConfig()
	m := zoo.BuildLM(cfg, rng)
	seqs := make([][]int, 8)
	for i := range seqs {
		s := make([]int, cfg.SeqLen+1)
		for j := range s {
			s[j] = rng.Intn(cfg.Vocab)
		}
		seqs[i] = s
	}
	batch := &nn.Batch{Seq: seqs}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainStep(batch)
	}
}

func BenchmarkBuildPlan(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	spec := zoo.VGGSpec()
	net, err := zoo.Build(spec, rng)
	if err != nil {
		b.Fatal(err)
	}
	ws := nn.GetWeights(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prune.BuildPlan(spec, ws, 0.4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShrinkRecoverRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	spec := zoo.AlexNetSpec()
	net, err := zoo.Build(spec, rng)
	if err != nil {
		b.Fatal(err)
	}
	ws := nn.GetWeights(net)
	plan, err := prune.BuildPlan(spec, ws, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, subW, err := prune.Shrink(spec, ws, plan)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := prune.Recover(spec, subW, plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEUCBSelectObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	agent := bandit.MustAgent(bandit.DefaultConfig(), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := agent.Select()
		agent.Observe(r) // reward value irrelevant for cost
	}
}

func BenchmarkSimulationRound(b *testing.B) {
	// One full FedMP round on the CNN analogue with 4 workers: the
	// end-to-end unit the experiment harness is built from.
	fam, err := core.NewImageFamily(zoo.ModelCNN)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Run(fam, core.Config{
			Strategy:   core.StrategyFedMP,
			Workers:    4,
			Rounds:     1,
			LocalIters: 2,
			BatchSize:  6,
			EvalEvery:  1,
			EvalLimit:  64,
			Seed:       int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
