package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Tests of the indirect convolution at the level of this package: the
// products against their lowered definition with the sample flush between two
// poisoned guards, what Plan declines, operands it refuses, and allocations.
// The grid over geometries, batch sizes and hostile values is internal/nn's
// (TestConv2DIndirectMatchesLowered), where the layer holds both paths.

// indirectTiers calls visit on every tier of this machine with the indirect
// kernels active, and skips the test when there is none.
func indirectTiers(t *testing.T, visit func(kern *gemmKernel)) {
	t.Helper()
	defer func(name string) {
		if err := ForceKernel(name); err != nil {
			t.Fatal(err)
		}
	}(KernelName())
	found := false
	for _, kern := range kernelTiers {
		if kern.indirectB == nil {
			continue
		}
		found = true
		if err := ForceKernel(kern.name); err != nil {
			t.Fatal(err)
		}
		visit(kern)
	}
	if !found {
		t.Skipf("no tier of %v has indirect kernels", Kernels())
	}
}

// loweredProducts is the definition: y = W·cols and dw += dy·colsᵀ through
// Im2Col, Pack and GEMMPacked, as nn.Conv2D lowers them.
func loweredProducts(g ConvGeom, x, w, dy, y, dw []float32) {
	rows, outArea := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	cols := make([]float32, rows*outArea)
	Im2Col(x, g, cols)
	var wA, dyA PackedA
	var colsB PackedB
	wA.Pack(w, false, g.OutC, rows, outArea)
	colsB.Pack(cols, false, g.OutC, rows, outArea)
	GEMMPacked(y, &wA, &colsB, false)
	dyA.Pack(dy, false, g.OutC, outArea, rows)
	colsB.Pack(cols, true, g.OutC, outArea, rows)
	GEMMPacked(dw, &dyA, &colsB, true)
}

// TestIndirectReadsStayInsideSample: the kernels' furthest load is the last
// tap seen from the last position, ((c·Hp + kh + oh)·Wp + kw + ow + 7) with
// ow + 7 = OutW − 1 — the last float of the padded sample, no slack — and the
// nearest is its first. The sample sits between two NaN-filled guards, its
// capacity cut to its length, so a load a float either side would poison a
// result; results must equal the lowered products bit for bit. Row and filter
// counts off the tile sizes exercise the repeated taps and zero-padded
// panels at the edges.
func TestIndirectReadsStayInsideSample(t *testing.T) {
	indirectTiers(t, func(kern *gemmKernel) {
		rng := rand.New(rand.NewSource(51))
		for _, g := range []ConvGeom{
			{InC: 1, InH: 16, InW: 16, OutC: 8, KH: 5, KW: 5, Stride: 1, Pad: 2},
			{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 5, KW: 5, Stride: 1, Pad: 2},
			{InC: 5, InH: 8, InW: 8, OutC: 13, KH: 3, KW: 3, Stride: 1, Pad: 1},
			{InC: 7, InH: 6, InW: 26, OutC: 17, KH: 3, KW: 3, Stride: 1, Pad: 0},
			{InC: 32, InH: 2, InW: 16, OutC: 33, KH: 1, KW: 1, Stride: 1, Pad: 0},
			{InC: 3, InH: 12, InW: 24, OutC: 7, KH: 5, KW: 5, Stride: 1, Pad: 2},
		} {
			rows, outArea := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
			x := RandN(rng, g.InC, g.InH, g.InW).Data
			w := RandN(rng, g.OutC, rows).Data
			dy := RandN(rng, g.OutC, outArea).Data
			seed := RandN(rng, g.OutC, rows).Data
			wantY, wantDW := make([]float32, g.OutC*outArea), append([]float32(nil), seed...)
			loweredProducts(g, x, w, dy, wantY, wantDW)

			var ic IndirectConv
			if !ic.Plan(g) {
				t.Fatalf("%s declines %+v", kern.name, g)
			}
			const guard = 64
			size := len(ic.xpad)
			arena := make([]float32, guard+size+guard)
			for i := range arena {
				arena[i] = float32(math.NaN())
			}
			ic.xpad = arena[guard : guard+size : guard+size]
			clear(ic.xpad)
			ic.Load(x)

			var wA PackedA
			var dyT PackedB
			wA.Pack(w, false, g.OutC, rows, outArea)
			dyT.Pack(dy, true, rows, outArea, g.OutC)
			gotY, gotDW := make([]float32, g.OutC*outArea), append([]float32(nil), seed...)
			ic.Mul(gotY, &wA)
			ic.AddGradW(gotDW, &dyT)
			if i := firstBitDiff(gotY, wantY); i >= 0 {
				t.Errorf("%s %+v: y[%d] = %v, lowered %v", kern.name, g, i, gotY[i], wantY[i])
			}
			if i := firstBitDiff(gotDW, wantDW); i >= 0 {
				t.Errorf("%s %+v: dW[%d] = %v, lowered %v", kern.name, g, i, gotDW[i], wantDW[i])
			}
			for i, v := range arena[:guard] {
				if v == v {
					t.Fatalf("%s %+v: guard float %d before the sample was written", kern.name, g, i)
				}
			}
			for i, v := range arena[guard+size:] {
				if v == v {
					t.Fatalf("%s %+v: guard float %d after the sample was written", kern.name, g, i)
				}
			}
		}
	})
}

// TestIndirectRefusesOtherOperands: Mul and AddGradW take operands packed for
// the planned product on the planned tier and nothing else, as GEMMPacked
// refuses a mismatched pair.
func TestIndirectRefusesOtherOperands(t *testing.T) {
	indirectTiers(t, func(kern *gemmKernel) {
		g := ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
		rows, outArea := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
		var ic IndirectConv
		if !ic.Plan(g) {
			t.Fatalf("%s declines %+v", kern.name, g)
		}
		ic.Load(make([]float32, g.InC*g.InH*g.InW))
		var wA PackedA
		var dyT PackedB
		mustPanic := func(what string, f func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("%s: %s did not panic", kern.name, what)
				}
			}()
			f()
		}
		wA.Pack(make([]float32, (g.OutC+1)*rows), false, g.OutC+1, rows, outArea)
		mustPanic("Mul with weights of another width", func() { ic.Mul(make([]float32, g.OutC*outArea), &wA) })
		wA.Pack(make([]float32, g.OutC*rows), false, g.OutC, rows, outArea)
		mustPanic("Mul into a short output", func() { ic.Mul(make([]float32, g.OutC*outArea-1), &wA) })
		dyT.Pack(make([]float32, g.OutC*outArea), false, rows, g.OutC, outArea)
		mustPanic("AddGradW with dy packed for dcols", func() { ic.AddGradW(make([]float32, g.OutC*rows), &dyT) })
		mustPanic("Load of a short sample", func() { ic.Load(make([]float32, 3)) })
		if err := ForceKernel("generic"); err != nil {
			t.Fatal(err)
		}
		wA.Pack(make([]float32, g.OutC*rows), false, g.OutC, rows, outArea)
		mustPanic("Mul with weights packed on another tier", func() { ic.Mul(make([]float32, g.OutC*outArea), &wA) })
		if ic.Plan(g) {
			t.Fatalf("generic serves %+v", g)
		}
		mustPanic("Mul after Plan declined", func() { ic.Mul(make([]float32, g.OutC*outArea), &wA) })
	})
}

// TestPackedOperandsAllocateOnce: Pack grows a panel buffer once per geometry
// and re-slices it afterwards, on both sides of smallGEMMFLOPs and in both
// storage forms; so do IndirectConv's sample and tables, and none of the
// products allocates.
func TestPackedOperandsAllocateOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	rng := rand.New(rand.NewSource(52))
	const m, k, n = 24, 40, 48 // blocked side; (m, k, 4) is direct
	a, b := RandN(rng, m, k).Data, RandN(rng, k, n).Data
	var pa PackedA
	var pb PackedB
	c := make([]float32, m*n)
	steady := func(what string, f func()) {
		t.Helper()
		f()
		if got := testing.AllocsPerRun(20, f); got > 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", what, got)
		}
	}
	steady("PackedA.Pack", func() {
		pa.Pack(a, false, m, k, n)
		pa.Pack(a, true, k, m, n)
		pa.Pack(a, false, m, k, 4)
	})
	steady("PackedB.Pack", func() {
		pb.Pack(b, false, m, k, n)
		pb.Pack(b, true, m, n, k)
		pb.Pack(b[:k*4], true, m, k, 4)
	})
	steady("Pack + GEMMPacked", func() {
		pa.Pack(a, false, m, k, n)
		pb.Pack(b, false, m, k, n)
		GEMMPacked(c, &pa, &pb, false)
	})

	g := ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 5, KW: 5, Stride: 1, Pad: 2}
	small := ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 12, KH: 3, KW: 3, Stride: 1, Pad: 1}
	var ic IndirectConv
	if !ic.Plan(g) {
		t.Skipf("tier %s lowers %+v", KernelName(), g)
	}
	x := RandN(rng, g.InC, g.InH, g.InW).Data
	rows, outArea := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	w, dy := RandN(rng, g.OutC, rows).Data, RandN(rng, g.OutC, outArea).Data
	y, dw := make([]float32, g.OutC*outArea), make([]float32, g.OutC*rows)
	steady("IndirectConv step across a geometry change", func() {
		ic.Plan(small)
		ic.Plan(g)
		ic.Load(x)
		pa.Pack(w, false, g.OutC, rows, outArea)
		ic.Mul(y, &pa)
		pb.Pack(dy, true, rows, outArea, g.OutC)
		ic.AddGradW(dw, &pb)
	})
}
