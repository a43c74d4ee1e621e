package tensor

import (
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks. The GEMM and MatVec ones give SetBytes the FLOP
// count of one product, so their MB/s column reads as MFLOP/s. The seed
// kernels' ns/op for the same bodies are in EXPERIMENTS.md ("Where each
// retired row lives now"); the Makefile's bench-smoke target keeps these
// compiling and running.

func benchGEMM(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	x := RandN(rng, m, k)
	y := RandN(rng, k, n)
	out := New(m, n)
	b.SetBytes(int64(2 * m * k * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y, false)
	}
}

func BenchmarkGEMM32(b *testing.B)  { benchGEMM(b, 32, 32, 32) }
func BenchmarkGEMM64(b *testing.B)  { benchGEMM(b, 64, 64, 64) }
func BenchmarkGEMM128(b *testing.B) { benchGEMM(b, 128, 128, 128) }
func BenchmarkGEMM256(b *testing.B) { benchGEMM(b, 256, 256, 256) }
func BenchmarkGEMM512(b *testing.B) { benchGEMM(b, 512, 512, 512) }

func BenchmarkGEMMTA128(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := RandN(rng, 128, 128)
	y := RandN(rng, 128, 128)
	out := New(128, 128)
	b.SetBytes(2 * 128 * 128 * 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTAInto(out, x, y, false)
	}
}

func BenchmarkGEMMTB128(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := RandN(rng, 128, 128)
	y := RandN(rng, 128, 128)
	out := New(128, 128)
	b.SetBytes(2 * 128 * 128 * 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTBInto(out, x, y, false)
	}
}

func BenchmarkGEMMAccumulate128(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := RandN(rng, 128, 128)
	y := RandN(rng, 128, 128)
	out := New(128, 128)
	b.SetBytes(2 * 128 * 128 * 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y, true)
	}
}

func BenchmarkMatVec256(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := RandN(rng, 256, 256)
	x := RandN(rng, 256)
	y := make([]float32, 256)
	b.SetBytes(2 * 256 * 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecInto(y, a, x.Data, false)
	}
}

// BenchmarkGEMMSparseTB128 measures the pruning-mask path with half the
// weight rows zeroed; ideally ~2× the dense TB time per remaining row.
func BenchmarkGEMMSparseTB128(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := RandN(rng, 128, 128)
	w := RandN(rng, 128, 128)
	for r := 0; r < 128; r += 2 {
		for j := 0; j < 128; j++ {
			w.Data[r*128+j] = 0
		}
	}
	out := New(128, 128)
	b.SetBytes(2 * 128 * 128 * 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTBSparseInto(out, x, w, false)
	}
}

// benchConvGeom is the second convolution of the zoo CNN: 8 input channels on
// an 8×8 plane, 5×5 kernel, "same" padding — 200 column rows of 64.
var benchConvGeom = ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 5, KW: 5, Stride: 1, Pad: 2}

func BenchmarkIm2Col(b *testing.B) {
	g := benchConvGeom
	rng := rand.New(rand.NewSource(7))
	x := RandN(rng, g.InC, g.InH, g.InW)
	cols := make([]float32, g.InC*g.KH*g.KW*g.OutH()*g.OutW())
	b.SetBytes(int64(4 * len(cols)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(x.Data, g, cols)
	}
}

func BenchmarkCol2Im(b *testing.B) {
	g := benchConvGeom
	rng := rand.New(rand.NewSource(8))
	cols := RandN(rng, g.InC*g.KH*g.KW, g.OutH()*g.OutW())
	dx := make([]float32, g.InC*g.InH*g.InW)
	b.SetBytes(int64(4 * len(cols.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Col2Im(cols.Data, g, dx)
	}
}

// BenchmarkGEMMTBPack is the per-sample weight-gradient product of the zoo
// CNN's first convolution, dW[8,25] += dy[8,256]·colsᵀ: both operands are
// packed through the transposing paths and the product itself is tiny, so
// the figure is dominated by packA/packB.
func BenchmarkGEMMTBPack(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	dy := RandN(rng, 8, 256)
	cols := RandN(rng, 25, 256)
	dw := New(8, 25)
	b.SetBytes(2 * 8 * 256 * 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTBInto(dw, dy, cols, true)
	}
}

// BenchmarkPackTransposed packs the operands that reach packTransposed in
// the zoo's train steps, each as its caller packs it — the conv weight
// gradient's dy_iᵀ (sim-cnn30's conv1 and conv2, blocked side), the dense
// fc1 weights for the forward x·Wᵀ (blocked side) and the LSTM's Wx and Wh
// for the gate products at batch 8 (direct and blocked side) — on the active
// tier ("kernel") and on it with the transpose kernel taken away ("loop",
// the Go loop every tier without one runs). SetBytes counts the floats read.
func BenchmarkPackTransposed(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	active := activeKernel.Load()
	defer activeKernel.Store(active)
	loop := *active
	loop.transpose8x8 = nil
	for _, c := range []struct {
		name    string
		m, k, n int
	}{
		{"conv1-dyT", 25, 256, 8},
		{"conv2-dyT", 200, 64, 16},
		{"dense-fc1", 8, 256, 64},
		{"lstm-Wx", 8, 16, 128},
		{"lstm-Wh", 8, 32, 128},
	} {
		src := RandN(rng, c.n, c.k).Data
		var p PackedB
		for _, tier := range []struct {
			name string
			kern *gemmKernel
		}{{"kernel", active}, {"loop", &loop}} {
			b.Run(c.name+"/"+tier.name, func(b *testing.B) {
				activeKernel.Store(tier.kern)
				b.SetBytes(int64(4 * c.k * c.n))
				for i := 0; i < b.N; i++ {
					p.Pack(src, true, c.m, c.k, c.n)
				}
			})
		}
	}
}

// benchGEMMDirect times one small product of the pruned LSTM's train step
// (batch 8, 24 hidden units) through gemm — the small-product kernels where
// the active tier has them — and, as the "scalar" sub-benchmark, through the
// scalar loops, so `go test -bench GEMMDirect` shows the kernel-level ratio.
func benchGEMMDirect(b *testing.B, aT, bT bool, m, k, n int, accumulate bool) {
	rng := rand.New(rand.NewSource(10))
	x, y := RandN(rng, m*k).Data, RandN(rng, k*n).Data
	out := make([]float32, m*n)
	run := func(f func(c, a, b []float32, aT, bT bool, m, k, n int, accumulate bool)) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(2 * m * k * n))
			for i := 0; i < b.N; i++ {
				f(out, x, y, aT, bT, m, k, n, accumulate)
			}
		}
	}
	b.Run("kernel", run(gemm))
	b.Run("scalar", run(gemmDirectScalar))
}

// Forward z = x·Wᵀ, weight gradient dW += dzᵀ·x, input gradient dx = dz·W.
func BenchmarkGEMMDirectFwd(b *testing.B) { benchGEMMDirect(b, false, true, 8, 24, 96, false) }
func BenchmarkGEMMDirectDW(b *testing.B)  { benchGEMMDirect(b, true, false, 96, 8, 24, true) }
func BenchmarkGEMMDirectDX(b *testing.B)  { benchGEMMDirect(b, false, false, 8, 96, 24, false) }

// benchAct32 times one activation sweep of the LSTM's gate pass through the
// active tier's kernel and, as the "scalar" sub-benchmark, through the scalar
// loop over the standard library; SetBytes counts one byte per element, so
// the MB/s column reads as elements per microsecond.
func benchAct32(b *testing.B, n int, into, scalar func(dst, src []float32)) {
	src := RandN(rand.New(rand.NewSource(11)), n).Data
	dst := make([]float32, n)
	run := func(f func(dst, src []float32)) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				f(dst, src)
			}
		}
	}
	b.Run("kernel", run(into))
	b.Run("scalar", run(scalar))
}

// The default LM has 32 hidden units: three gate rows of them for sigmoid,
// one for tanh.
func BenchmarkSigmoidInto(b *testing.B) { benchAct32(b, 96, SigmoidInto, sigmoidScalar) }
func BenchmarkTanhInto(b *testing.B)    { benchAct32(b, 32, TanhInto, tanhScalar) }

// BenchmarkExpInto is one softmax row of the LM's 80-word vocabulary.
func BenchmarkExpInto(b *testing.B) {
	const n = 80
	src, dst := make([]float64, n), make([]float64, n)
	for i, v := range RandN(rand.New(rand.NewSource(12)), n).Data {
		src[i] = -4 * float64(v*v)
	}
	run := func(f func(dst, src []float64)) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				f(dst, src)
			}
		}
	}
	b.Run("kernel", run(ExpInto))
	b.Run("scalar", run(expScalar))
}
