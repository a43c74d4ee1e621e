package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedmp/internal/tensor"
)

// Differential tests of the indirect convolution against the lowered one: the
// same Conv2D with lowered set, which builds the column matrix and multiplies
// through GEMMPacked wherever the other reads the padded sample. Equality is
// by bit pattern, NaN payloads included (except under the race detector, see
// requireSameResult). Only a tier with the indirect kernels has two paths to
// hold apart; on the others the tests check that every layer lowers.

// hostile are the values sown into x, W and dy: both zeros, the smallest and
// largest denormals, both infinities, and quiet and signalling NaNs of both
// signs with payloads, so that which operand of an instruction a NaN sat in
// shows in the result.
var hostile = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x807fffff),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
	math.Float32frombits(0x7fc12345), math.Float32frombits(0xffc54321),
	math.Float32frombits(0x7f80beef), math.Float32frombits(0xff80cafe),
}

// sow overwrites count random elements of v with hostile values.
func sow(rng *rand.Rand, v []float32, count int) {
	for ; count > 0; count-- {
		v[rng.Intn(len(v))] = hostile[rng.Intn(len(hostile))]
	}
}

// requireSameResult is requireSameBits, except that under the race detector
// a NaN matches any NaN: when two NaNs meet in an add x86 keeps the first
// operand's, and which operand the compiler puts first in mergeTile's and
// Col2Im's Go loops is its own choice — the same one in a plain build, where
// the kernels' accumulate step and addRuns agree with them, and not
// necessarily under the detector's instrumentation.
func requireSameResult(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if !raceEnabled {
		requireSameBits(t, what, got, want)
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, lowered %d", what, len(got), len(want))
	}
	for i, g := range got {
		if w := want[i]; math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d is %v (%#08x), lowered %v (%#08x)", what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// retarget points an existing layer at another geometry with fresh weights,
// keeping every workspace it has grown.
func retarget(c *Conv2D, g tensor.ConvGeom, rng *rand.Rand) {
	c.Geom = g
	c.W = NewParam("c/W", tensor.HeInit(rng, g.InC*g.KH*g.KW, g.OutC, g.InC, g.KH, g.KW))
	c.B = NewParam("c/b", tensor.RandN(rng, g.OutC))
	c.B.W.Data[rng.Intn(g.OutC)] = 0 // Forward skips zero biases
}

// checkIndirectStep runs one forward/backward at batch size n through ind
// and its lowered twin from identical weights and gradient accumulators, and
// compares y, dx, dW and db, then dW and db out of BackwardParams. With sown
// set, hostile values go into x, W and dy first — among them an infinite
// gradient in the first output row, which every tap of the first kernel row
// sees only through the border.
func checkIndirectStep(t *testing.T, what string, ind, low *Conv2D, n int, sown bool, rng *rand.Rand) {
	t.Helper()
	g := ind.Geom
	x := tensor.RandN(rng, n, g.InC, g.InH, g.InW)
	dy := tensor.RandN(rng, n, g.OutC, g.OutH(), g.OutW())
	if sown {
		sow(rng, x.Data, 3)
		sow(rng, ind.W.W.Data, 2)
		sow(rng, dy.Data, 3)
		dy.Data[rng.Intn(g.OutW())] = float32(math.Inf(1))
		ind.W.W.Data[rng.Intn(g.KW)] = float32(math.Inf(-1))
	}
	low.W.W.CopyFrom(ind.W.W)
	low.B.W.CopyFrom(ind.B.W)
	seedGrads := func() {
		for i := range ind.W.Grad.Data {
			ind.W.Grad.Data[i] = float32(rng.NormFloat64())
		}
		for i := range ind.B.Grad.Data {
			ind.B.Grad.Data[i] = float32(rng.NormFloat64())
		}
		if sown {
			sow(rng, ind.W.Grad.Data, 2)
		}
		low.W.Grad.CopyFrom(ind.W.Grad)
		low.B.Grad.CopyFrom(ind.B.Grad)
	}
	requireSameResult(t, what+" y", ind.Forward(x, true).Data, low.Forward(x, true).Data)
	seedGrads()
	requireSameResult(t, what+" dx", ind.Backward(dy).Data, low.Backward(dy).Data)
	requireSameResult(t, what+" dW", ind.W.Grad.Data, low.W.Grad.Data)
	requireSameResult(t, what+" db", ind.B.Grad.Data, low.B.Grad.Data)
	seedGrads()
	ind.BackwardParams(dy)
	low.BackwardParams(dy)
	requireSameResult(t, what+" dW (params only)", ind.W.Grad.Data, low.W.Grad.Data)
	requireSameResult(t, what+" db (params only)", ind.B.Grad.Data, low.B.Grad.Data)
}

// indirectTier reports whether the active tier has the indirect kernels, by
// asking about a geometry every such tier serves.
func indirectTier() bool {
	var ic tensor.IndirectConv
	return ic.Plan(tensor.ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 5, KW: 5, Stride: 1, Pad: 2})
}

func TestConv2DIndirectMatchesLowered(t *testing.T) {
	kernels := []int{1, 3, 5}
	pads := []int{0, 1, 2}
	outWs := []int{8, 16, 24}
	inCs := []int{1, 3, 5, 8, 32}
	outCs := []int{1, 5, 6, 7, 11, 16, 17, 33}
	outHs := []int{2, 4, 6, 12}
	forEachKernelTier(t, func(tier string) {
		rng := rand.New(rand.NewSource(43))
		// One pair of layers takes every geometry in turn, so each runs in
		// workspaces — the padded sample and its tables among them — laid
		// out for another.
		ind, low := &Conv2D{name: "ind"}, &Conv2D{name: "low", lowered: true}
		served, seen := 0, map[string]bool{}
		run := func(g tensor.ConvGeom, n int) {
			retarget(ind, g, rng)
			retarget(low, g, rng)
			if !ind.plan() {
				return
			}
			served++
			seen[fmt.Sprint("K", g.KH)], seen[fmt.Sprint("pad", g.Pad)], seen[fmt.Sprint("outW", g.OutW())] = true, true, true
			seen[fmt.Sprint("inC", g.InC)], seen[fmt.Sprint("outC", g.OutC)] = true, true
			what := fmt.Sprintf("%s %+v n=%d", tier, g, n)
			checkIndirectStep(t, what, ind, low, n, false, rng)
			checkIndirectStep(t, what+" (sown)", ind, low, n, true, rng)
		}
		// Every (inC, outC) pair, twice, each time on another of the 27
		// (K, pad, outW) combinations, so that all of those occur too.
		i := 0
		for pass := 0; pass < 2; pass++ {
			for _, inC := range inCs {
				for _, outC := range outCs {
					combo := (i*(1+6*pass) + 3*pass) % 27
					k, pad, outW := kernels[combo%3], pads[combo/3%3], outWs[combo/9]
					// The plane grows until the product is on the blocked
					// side, if a plane of 24 rows gets it there.
					outH := outHs[i%len(outHs)]
					for outH < 24 && (outH+k-1-2*pad < 1 || outC*inC*k*k*outH*outW < 32*32*32) {
						outH += 2
					}
					g := tensor.ConvGeom{InC: inC, InH: outH + k - 1 - 2*pad, InW: outW + k - 1 - 2*pad, OutC: outC, KH: k, KW: k, Stride: 1, Pad: pad}
					run(g, []int{1, 8, 2}[i%3])
					i++
				}
			}
		}
		// sim-cnn30's and AlexNet's layers at full and pruned widths, an
		// evaluation chunk, and products that cross the kc chunk boundary:
		// rows > 256 (forward), outArea > 256 (dW), both, and OutC > 256
		// (dx).
		for _, tc := range []struct {
			g tensor.ConvGeom
			n int
		}{
			{tensor.ConvGeom{InC: 1, InH: 16, InW: 16, OutC: 8, KH: 5, KW: 5, Stride: 1, Pad: 2}, 64},
			{tensor.ConvGeom{InC: 1, InH: 16, InW: 16, OutC: 6, KH: 5, KW: 5, Stride: 1, Pad: 2}, 8},
			{tensor.ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 5, KW: 5, Stride: 1, Pad: 2}, 64},
			{tensor.ConvGeom{InC: 5, InH: 8, InW: 8, OutC: 10, KH: 5, KW: 5, Stride: 1, Pad: 2}, 8},
			{tensor.ConvGeom{InC: 16, InH: 8, InW: 8, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, 8},
			{tensor.ConvGeom{InC: 32, InH: 8, InW: 8, OutC: 17, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2},
			{tensor.ConvGeom{InC: 3, InH: 12, InW: 24, OutC: 7, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2},
			{tensor.ConvGeom{InC: 11, InH: 20, InW: 16, OutC: 33, KH: 5, KW: 5, Stride: 1, Pad: 2}, 1},
			{tensor.ConvGeom{InC: 2, InH: 24, InW: 24, OutC: 130, KH: 3, KW: 3, Stride: 1, Pad: 1}, 1},
			{tensor.ConvGeom{InC: 2, InH: 8, InW: 8, OutC: 260, KH: 3, KW: 3, Stride: 1, Pad: 1}, 2},
		} {
			run(tc.g, tc.n)
		}
		if !indirectTier() {
			if served > 0 {
				t.Fatalf("%s has no indirect kernels and served %d geometries indirectly", tier, served)
			}
			return
		}
		if served < 55 {
			t.Fatalf("%s: %d geometries took the indirect path; need plenty", tier, served)
		}
		for _, dims := range []struct {
			name string
			vals []int
		}{{"K", kernels}, {"pad", pads}, {"outW", outWs}, {"inC", inCs}, {"outC", outCs}} {
			for _, v := range dims.vals {
				if !seen[fmt.Sprint(dims.name, v)] {
					t.Errorf("%s: no indirect geometry with %s = %d", tier, dims.name, v)
				}
			}
		}
	})
}

// TestIndirectDeclines: what the indirect path does not serve keeps lowering,
// on every tier: stride 2, output rows that are not whole 8-float runs, planes
// that are not whole 16-column panels, and products on the direct side of
// smallGEMMFLOPs — a pruned width that crosses it changes path with it.
func TestIndirectDeclines(t *testing.T) {
	forEachKernelTier(t, func(tier string) {
		for _, tc := range []struct {
			why      string
			g        tensor.ConvGeom
			indirect bool
		}{
			{"conv1 at 8 filters", tensor.ConvGeom{InC: 1, InH: 16, InW: 16, OutC: 8, KH: 5, KW: 5, Stride: 1, Pad: 2}, true},
			{"conv1 at 6 filters", tensor.ConvGeom{InC: 1, InH: 16, InW: 16, OutC: 6, KH: 5, KW: 5, Stride: 1, Pad: 2}, true},
			{"conv1 at 5 filters: direct side", tensor.ConvGeom{InC: 1, InH: 16, InW: 16, OutC: 5, KH: 5, KW: 5, Stride: 1, Pad: 2}, false},
			{"stride 2", tensor.ConvGeom{InC: 8, InH: 16, InW: 16, OutC: 16, KH: 3, KW: 3, Stride: 2, Pad: 1}, false},
			{"4x4 map", tensor.ConvGeom{InC: 32, InH: 4, InW: 4, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, false},
			{"outW 12", tensor.ConvGeom{InC: 8, InH: 12, InW: 12, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}, false},
			{"8x3 plane: outArea 24", tensor.ConvGeom{InC: 8, InH: 3, InW: 8, OutC: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}, false},
		} {
			c := NewConv2D("c", tc.g, rand.New(rand.NewSource(1)))
			if got, want := c.plan(), tc.indirect && indirectTier(); got != want {
				t.Errorf("%s, %s: indirect %v, want %v", tier, tc.why, got, want)
			}
		}
	})
}

// TestTrainStepIndirectMatchesLowered trains sim-cnn30's network for a few
// steps on both paths and compares every updated weight.
func TestTrainStepIndirectMatchesLowered(t *testing.T) {
	build := func(lowered bool) (*Sequential, *Conv2D) {
		rng := rand.New(rand.NewSource(44))
		c1 := NewConv2D("c1", tensor.ConvGeom{InC: 1, InH: 16, InW: 16, OutC: 8, KH: 5, KW: 5, Stride: 1, Pad: 2}, rng)
		c2 := NewConv2D("c2", tensor.ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 5, KW: 5, Stride: 1, Pad: 2}, rng)
		c1.lowered, c2.lowered = lowered, lowered
		return NewSequential(
			c1, NewReLU("r1"), NewMaxPool2D("p1", 8, 16, 16, 2),
			c2, NewReLU("r2"), NewMaxPool2D("p2", 16, 8, 8, 2),
			NewFlatten("f", 16*4*4), NewDense("d1", 16*4*4, 64, rng), NewReLU("r3"), NewDense("d2", 64, 10, rng),
		), c2
	}
	forEachKernelTier(t, func(tier string) {
		ind, c2 := build(false)
		low, _ := build(true)
		if got := c2.plan(); got != indirectTier() {
			t.Fatalf("%s: conv2 indirect %v, want %v", tier, got, indirectTier())
		}
		optInd, optLow := NewSGD(0.05, 0.9, 2e-3), NewSGD(0.05, 0.9, 2e-3)
		rng := rand.New(rand.NewSource(45))
		for step := 0; step < 3; step++ {
			b := imageBatch(rng, 8, 1, 16, 16, 10)
			lossInd, okInd := ind.TrainStep(b)
			lossLow, okLow := low.TrainStep(b)
			if lossInd != lossLow || okInd != okLow {
				t.Fatalf("%s step %d: TrainStep returned (%v, %d), lowered (%v, %d)", tier, step, lossInd, okInd, lossLow, okLow)
			}
			optInd.Step(ind.Params())
			optLow.Step(low.Params())
			for i, p := range ind.Params() {
				requireSameBits(t, fmt.Sprintf("%s step %d %s", tier, step, p.Name), p.W.Data, low.Params()[i].W.Data)
			}
		}
	})
}
