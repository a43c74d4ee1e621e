package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// The -bench-json mode re-runs the kernel micro-benchmarks from
// internal/tensor/gemm_bench_test.go and the end-to-end training-step
// benchmarks from bench_test.go programmatically via testing.Benchmark,
// then writes BENCH_kernels.json with the measured numbers next to the
// seed baselines so the speedup column regenerates with the data. Rows added
// since (the conv lowering, pack and optimiser parts of the train step) have
// no seed measurement and carry ns/op and allocs/op only.

// seedBaselines are ns/op and allocs/op for the same benchmark bodies
// measured at the growth seed (commit 0cdb44a, naive triple-loop kernels
// with per-call allocation), single-threaded. They are frozen here so the
// speedup column always compares against the pre-engine code even after
// that code is gone.
var seedBaselines = map[string]struct {
	NsPerOp     float64
	AllocsPerOp int64
}{
	"GEMM64":        {121266, 0},
	"GEMM128":       {962392, 0},
	"GEMM256":       {7049330, 0},
	"GEMM512":       {57142026, 0},
	"GEMMTA128":     {990908, 0},
	"GEMMTB128":     {1070253, 0},
	"MatVec256":     {34308, 0},
	"ConvForward":   {4524033, 55},
	"TrainStepCNN":  {4466478, 461},
	"LSTMTrainStep": {3316108, 1447},
}

type kernelResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	GFLOPs      float64 `json:"gflops,omitempty"`
	SeedNsPerOp float64 `json:"seed_ns_per_op,omitempty"`
	SeedAllocs  int64   `json:"seed_allocs_per_op,omitempty"`
	Speedup     float64 `json:"speedup_vs_seed,omitempty"`
}

type kernelReport struct {
	GeneratedBy string `json:"generated_by"`
	SeedCommit  string `json:"seed_commit"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	// KernelTier is the micro-kernel tier the numbers were measured with
	// (the start-up default unless FEDMP_KERNEL forced another);
	// KernelTiers lists every tier this machine offers and KernelFused
	// records whether they use fused multiply-add accumulation.
	KernelTier  string         `json:"kernel_tier"`
	KernelTiers []string       `json:"kernel_tiers"`
	KernelFused bool           `json:"kernel_fused"`
	Kernels     []kernelResult `json:"kernels"`
}

type kernelBench struct {
	name  string
	flops float64 // per op; 0 when FLOPs are not well-defined (full train steps)
	run   func(b *testing.B)
}

func benchGEMM(m, k, n int) func(b *testing.B) {
	return func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		x := tensor.RandN(rng, m, k)
		y := tensor.RandN(rng, k, n)
		out := tensor.New(m, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.MatMulInto(out, x, y, false)
		}
	}
}

// cnnConv2Geom is the second convolution of the zoo CNN, the shape the
// Im2Col and Col2Im rows (and internal/tensor's benchmarks) lower.
var cnnConv2Geom = tensor.ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 5, KW: 5, Stride: 1, Pad: 2}

func kernelBenches() []kernelBench {
	return []kernelBench{
		{"GEMM64", 2 * 64 * 64 * 64, benchGEMM(64, 64, 64)},
		{"GEMM128", 2 * 128 * 128 * 128, benchGEMM(128, 128, 128)},
		{"GEMM256", 2 * 256 * 256 * 256, benchGEMM(256, 256, 256)},
		{"GEMM512", 2 * 512 * 512 * 512, benchGEMM(512, 512, 512)},
		{"GEMMTA128", 2 * 128 * 128 * 128, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			x := tensor.RandN(rng, 128, 128)
			y := tensor.RandN(rng, 128, 128)
			out := tensor.New(128, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulTAInto(out, x, y, false)
			}
		}},
		{"GEMMTB128", 2 * 128 * 128 * 128, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			x := tensor.RandN(rng, 128, 128)
			y := tensor.RandN(rng, 128, 128)
			out := tensor.New(128, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulTBInto(out, x, y, false)
			}
		}},
		{"MatVec256", 2 * 256 * 256, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			a := tensor.RandN(rng, 256, 256)
			x := tensor.RandN(rng, 256)
			y := make([]float32, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatVecInto(y, a, x.Data, false)
			}
		}},
		{"GEMMTBPack", 2 * 8 * 256 * 25, func(b *testing.B) {
			// The per-sample weight-gradient product of the CNN's first
			// convolution: tiny, so the transposing packs dominate it.
			rng := rand.New(rand.NewSource(9))
			dy := tensor.RandN(rng, 8, 256)
			cols := tensor.RandN(rng, 25, 256)
			dw := tensor.New(8, 25)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulTBInto(dw, dy, cols, true)
			}
		}},
		{"Im2Col", 0, func(b *testing.B) {
			g := cnnConv2Geom
			x := tensor.RandN(rand.New(rand.NewSource(7)), g.InC, g.InH, g.InW)
			cols := make([]float32, g.InC*g.KH*g.KW*g.OutH()*g.OutW())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Im2Col(x.Data, g, cols)
			}
		}},
		{"Col2Im", 0, func(b *testing.B) {
			g := cnnConv2Geom
			cols := tensor.RandN(rand.New(rand.NewSource(8)), g.InC*g.KH*g.KW, g.OutH()*g.OutW())
			dx := make([]float32, g.InC*g.InH*g.InW)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Col2Im(cols.Data, g, dx)
			}
		}},
		{"ConvForward", 0, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			g := tensor.ConvGeom{InC: 16, InH: 16, InW: 16, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
			conv := nn.NewConv2D("c", g, rng)
			x := tensor.RandN(rng, 8, 16, 16, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conv.Forward(x, true)
			}
		}},
		{"ConvBackward", 0, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			g := tensor.ConvGeom{InC: 16, InH: 16, InW: 16, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
			conv := nn.NewConv2D("c", g, rng)
			x := tensor.RandN(rng, 8, 16, 16, 16)
			dy := tensor.RandN(rng, 8, 32, 16, 16)
			conv.Forward(x, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conv.Backward(dy)
			}
		}},
		{"SGDStep", 0, func(b *testing.B) {
			// The experiments' optimiser settings on the CNN's parameters.
			rng := rand.New(rand.NewSource(3))
			net, err := zoo.Build(zoo.CNNSpec(), rng)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range net.Params() {
				p.Grad = tensor.RandN(rng, p.W.Shape...)
			}
			opt := nn.NewSGD(0.05, 0.9, 2e-3)
			opt.Step(net.Params())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opt.Step(net.Params())
			}
		}},
		{"TrainStepCNN", 0, func(b *testing.B) {
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
		}},
		{"LSTMTrainStep", 0, func(b *testing.B) {
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
		}},
	}
}

// writeKernelBench runs every kernel benchmark once and writes the JSON
// report to path (stdout when path is "-").
func writeKernelBench(path string) error {
	rep := kernelReport{
		GeneratedBy: "fedmp-bench -bench-json",
		SeedCommit:  "0cdb44a",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		KernelTier:  tensor.KernelName(),
		KernelTiers: tensor.Kernels(),
		KernelFused: tensor.KernelFused(),
	}
	fmt.Fprintf(os.Stderr, "kernel tier %s (available %v, fused=%v)\n",
		rep.KernelTier, rep.KernelTiers, rep.KernelFused)
	for _, kb := range kernelBenches() {
		fmt.Fprintf(os.Stderr, "benchmarking %-13s ... ", kb.name)
		r := testing.Benchmark(kb.run)
		ns := float64(r.NsPerOp())
		res := kernelResult{
			Name:        kb.name,
			NsPerOp:     ns,
			AllocsPerOp: r.AllocsPerOp(),
		}
		if kb.flops > 0 && ns > 0 {
			res.GFLOPs = kb.flops / ns
		}
		if base, ok := seedBaselines[kb.name]; ok {
			res.SeedNsPerOp = base.NsPerOp
			res.SeedAllocs = base.AllocsPerOp
			if ns > 0 {
				res.Speedup = base.NsPerOp / ns
			}
		}
		fmt.Fprintf(os.Stderr, "%10.0f ns/op  %4d allocs/op", res.NsPerOp, res.AllocsPerOp)
		if res.Speedup > 0 { // rows added after the seed have no baseline
			fmt.Fprintf(os.Stderr, "  %5.2fx vs seed", res.Speedup)
		}
		fmt.Fprintln(os.Stderr)
		rep.Kernels = append(rep.Kernels, res)
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}
