package tensor

import (
	"fmt"
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

// loweredProducts is the definition: y = W·cols, dw += dy·colsᵀ and
// dx = Col2Im(Wᵀ·dy) through Im2Col, Pack, GEMMPacked and Col2Im, as
// nn.Conv2D lowers them.
func loweredProducts(g ConvGeom, x, w, dy, y, dw, dx []float32) {
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
	wA.Pack(w, true, rows, g.OutC, outArea)
	colsB.Pack(dy, false, rows, g.OutC, outArea)
	GEMMPacked(cols, &wA, &colsB, false)
	clear(dx)
	Col2Im(cols, g, dx)
}

// A guard is a run of guardLen floats holding guardBits, a signalling NaN: a
// load of it poisons a result, and an add into it would quieten it, so a
// guard that still holds it was neither read into a result nor written.
const (
	guardLen  = 64
	guardBits = 0x7f800001
)

// guarded returns a slice of n floats with capacity n between two guards,
// and the arena holding all three.
func guarded(n int) (inner, arena []float32) {
	arena = make([]float32, guardLen+n+guardLen)
	for i := range arena {
		arena[i] = math.Float32frombits(guardBits)
	}
	return arena[guardLen : guardLen+n : guardLen+n], arena
}

// checkGuards fails t unless both guards of arena are as guarded left them.
func checkGuards(t *testing.T, what string, arena []float32) {
	t.Helper()
	for i, v := range arena {
		if (i < guardLen || i >= len(arena)-guardLen) && math.Float32bits(v) != guardBits {
			t.Fatalf("%s: guard float %d of %d was written", what, i, len(arena))
		}
	}
}

// TestIndirectReadsStayInsideSample: the kernels' furthest load is the last
// tap seen from the last position, ((c·Hp + kh + oh)·Wp + kw + ow + 7) with
// ow + 7 = OutW − 1 — the last float of the padded sample, no slack — and the
// nearest is its first; GradX's furthest add into the padded gradient is the
// same float, and its product reads dy from the first filter's first position
// to the last filter's last; AddGradW's furthest store is the last float of
// dWᵀ's last padding row. The sample, the padded gradient, dWᵀ and dy each sit
// between two guards, capacity cut to length, so a load a float either side
// would poison a result and an add or a store would mark a guard; results must
// equal the lowered products bit for bit. Row and filter counts off the tile sizes
// exercise the repeated taps and zero-padded panels at the edges, and 260
// filters a dx product deeper than kc.
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
			{InC: 2, InH: 8, InW: 8, OutC: 260, KH: 3, KW: 3, Stride: 1, Pad: 1},
		} {
			rows, outArea := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
			x := RandN(rng, g.InC, g.InH, g.InW).Data
			w := RandN(rng, g.OutC, rows).Data
			dy, dyArena := guarded(g.OutC * outArea)
			copy(dy, RandN(rng, g.OutC, outArea).Data)
			seed := RandN(rng, g.OutC, rows).Data
			wantY, wantDW, wantDX := make([]float32, g.OutC*outArea), append([]float32(nil), seed...), make([]float32, len(x))
			loweredProducts(g, x, w, dy, wantY, wantDW, wantDX)

			var ic IndirectConv
			if !ic.Plan(g) {
				t.Fatalf("%s declines %+v", kern.name, g)
			}
			size := len(ic.xpad)
			var xArena, dxArena, dwArena []float32
			ic.xpad, xArena = guarded(size)
			clear(ic.xpad)
			ic.dxpad, dxArena = guarded(size)
			ic.dwT, dwArena = guarded(dwTSize(kern, g))
			ic.Load(x)

			var wA PackedA
			var dyT PackedB
			wA.Pack(w, false, g.OutC, rows, outArea)
			dyT.Pack(dy, true, rows, outArea, g.OutC)
			gotY, gotDW, gotDX := make([]float32, g.OutC*outArea), append([]float32(nil), seed...), make([]float32, len(x))
			ic.Mul(gotY, &wA)
			ic.BeginGradW(gotDW)
			ic.AddGradW(&dyT)
			ic.EndGradW(gotDW)
			wA.Pack(w, true, rows, g.OutC, outArea)
			ic.GradX(gotDX, dy, &wA)
			for _, r := range []struct {
				name      string
				got, want []float32
			}{{"y", gotY, wantY}, {"dW", gotDW, wantDW}, {"dx", gotDX, wantDX}} {
				if i := firstBitDiff(r.got, r.want); i >= 0 {
					t.Errorf("%s %+v: %s[%d] = %v, lowered %v", kern.name, g, r.name, i, r.got[i], r.want[i])
				}
			}
			what := fmt.Sprintf("%s %+v", kern.name, g)
			checkGuards(t, what+" sample", xArena)
			checkGuards(t, what+" padded gradient", dxArena)
			checkGuards(t, what+" dWᵀ", dwArena)
			checkGuards(t, what+" dy", dyArena)
		}
	})
}

// TestIndirectGradWBatchMatchesLowered: a whole batch of AddGradW between
// BeginGradW and EndGradW, into a dW that already holds a gradient, equals
// the lowered GEMMPacked(dw, dy_i, cols_iᵀ, true) of each sample in turn bit
// for bit. The geometries put partial tiles on both sides of dWᵀ — row counts
// off multiples of six, filter counts 1, 7, 8, 9 and 15 past a multiple of
// sixteen — and one 24×24 map makes each sample's sum three kc-deep chunks,
// which only this test holds to the lowered chunk order. A few hostile values
// (ewSpecials: NaN payloads, signalling ones among them, ±Inf, −0) go into
// x, dy and the prior dW, so that which operand of an FMA or an add a NaN sat
// in shows in the result.
func TestIndirectGradWBatchMatchesLowered(t *testing.T) {
	indirectTiers(t, func(kern *gemmKernel) {
		rng := rand.New(rand.NewSource(53))
		sow := func(v []float32, count int) {
			for ; count > 0; count-- {
				v[rng.Intn(len(v))] = ewSpecials[rng.Intn(len(ewSpecials))]
			}
		}
		for _, g := range []ConvGeom{
			{InC: 7, InH: 16, InW: 16, OutC: 1, KH: 5, KW: 5, Stride: 1, Pad: 2},
			{InC: 5, InH: 16, InW: 16, OutC: 7, KH: 3, KW: 3, Stride: 1, Pad: 1},
			{InC: 8, InH: 8, InW: 8, OutC: 24, KH: 5, KW: 5, Stride: 1, Pad: 2},
			{InC: 5, InH: 8, InW: 16, OutC: 25, KH: 3, KW: 3, Stride: 1, Pad: 1},
			{InC: 20, InH: 8, InW: 8, OutC: 31, KH: 1, KW: 1, Stride: 1, Pad: 0},
			{InC: 7, InH: 10, InW: 10, OutC: 9, KH: 3, KW: 3, Stride: 1, Pad: 0},
			{InC: 2, InH: 24, InW: 24, OutC: 15, KH: 5, KW: 5, Stride: 1, Pad: 2},
		} {
			const batch = 3
			rows, outArea, inSize := g.InC*g.KH*g.KW, g.OutH()*g.OutW(), g.InC*g.InH*g.InW
			if rows%kern.mr == 0 && g.OutC%kern.nr == 0 {
				t.Fatalf("%+v has no partial tile", g)
			}
			xs := RandN(rng, batch, inSize).Data
			dys := RandN(rng, batch, g.OutC*outArea).Data
			prior := RandN(rng, g.OutC*rows).Data
			sow(xs, 2)
			sow(dys, 2)
			sow(prior, 3)
			w := RandN(rng, g.OutC, rows).Data
			want := append([]float32(nil), prior...)
			y, dx := make([]float32, g.OutC*outArea), make([]float32, inSize)
			for i := 0; i < batch; i++ {
				loweredProducts(g, xs[i*inSize:(i+1)*inSize], w, dys[i*g.OutC*outArea:(i+1)*g.OutC*outArea], y, want, dx)
			}

			var ic IndirectConv
			if !ic.Plan(g) {
				t.Fatalf("%s declines %+v", kern.name, g)
			}
			var dyT PackedB
			got := append([]float32(nil), prior...)
			ic.BeginGradW(got)
			for i := 0; i < batch; i++ {
				ic.Load(xs[i*inSize : (i+1)*inSize])
				dyT.Pack(dys[i*g.OutC*outArea:(i+1)*g.OutC*outArea], true, rows, outArea, g.OutC)
				ic.AddGradW(&dyT)
			}
			ic.EndGradW(got)
			if i := oracleDiff(got, want); i >= 0 {
				t.Errorf("%s %+v: dW[%d] = %v (%#08x), lowered %v (%#08x)", kern.name, g, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	})
}

// TestIndirectRefusesOtherOperands: Mul, AddGradW and GradX take operands
// packed for the planned product on the planned tier and nothing else, as
// GEMMPacked refuses a mismatched pair, and slices of the planned lengths.
func TestIndirectRefusesOtherOperands(t *testing.T) {
	indirectTiers(t, func(kern *gemmKernel) {
		g := ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
		rows, outArea, inSize := g.InC*g.KH*g.KW, g.OutH()*g.OutW(), g.InC*g.InH*g.InW
		var ic IndirectConv
		if !ic.Plan(g) {
			t.Fatalf("%s declines %+v", kern.name, g)
		}
		ic.Load(make([]float32, inSize))
		var wA, wT PackedA
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
		dy := make([]float32, g.OutC*outArea)
		wA.Pack(make([]float32, (g.OutC+1)*rows), false, g.OutC+1, rows, outArea)
		mustPanic("Mul with weights of another width", func() { ic.Mul(make([]float32, g.OutC*outArea), &wA) })
		wA.Pack(make([]float32, g.OutC*rows), false, g.OutC, rows, outArea)
		mustPanic("Mul into a short output", func() { ic.Mul(make([]float32, g.OutC*outArea-1), &wA) })
		dyT.Pack(make([]float32, g.OutC*outArea), false, rows, g.OutC, outArea)
		mustPanic("AddGradW with dy packed for dcols", func() { ic.AddGradW(&dyT) })
		mustPanic("BeginGradW from a short dW", func() { ic.BeginGradW(make([]float32, g.OutC*rows-1)) })
		mustPanic("EndGradW into a long dW", func() { ic.EndGradW(make([]float32, g.OutC*rows+1)) })
		mustPanic("Load of a short sample", func() { ic.Load(make([]float32, 3)) })
		wT.Pack(make([]float32, (g.OutC+1)*rows), true, rows, g.OutC+1, outArea)
		mustPanic("GradX with Wᵀ of another width", func() { ic.GradX(make([]float32, inSize), dy, &wT) })
		wT.Pack(make([]float32, g.OutC*rows), true, rows, g.OutC, outArea)
		mustPanic("GradX into a short dx", func() { ic.GradX(make([]float32, inSize-1), dy, &wT) })
		mustPanic("GradX from a short dy", func() { ic.GradX(make([]float32, inSize), dy[1:], &wT) })
		if err := ForceKernel("generic"); err != nil {
			t.Fatal(err)
		}
		wA.Pack(make([]float32, g.OutC*rows), false, g.OutC, rows, outArea)
		mustPanic("Mul with weights packed on another tier", func() { ic.Mul(make([]float32, g.OutC*outArea), &wA) })
		wT.Pack(make([]float32, g.OutC*rows), true, rows, g.OutC, outArea)
		mustPanic("GradX with Wᵀ packed on another tier", func() { ic.GradX(make([]float32, inSize), dy, &wT) })
		if ic.Plan(g) {
			t.Fatalf("generic serves %+v", g)
		}
		mustPanic("Mul after Plan declined", func() { ic.Mul(make([]float32, g.OutC*outArea), &wA) })
		mustPanic("GradX after Plan declined", func() { ic.GradX(make([]float32, inSize), dy, &wT) })
		mustPanic("BeginGradW after Plan declined", func() { ic.BeginGradW(make([]float32, g.OutC*rows)) })
	})
}

// TestPackedOperandsAllocateOnce: Pack grows a panel buffer once per geometry
// and re-slices it afterwards, on both sides of smallGEMMFLOPs and in both
// storage forms; so do IndirectConv's padded sample and gradient, its column
// gradient panel, its dWᵀ and its three offset tables, and none of the
// products or the copies into and out of dWᵀ allocates.
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
	y, dw, dx := make([]float32, g.OutC*outArea), make([]float32, g.OutC*rows), make([]float32, len(x))
	steady("IndirectConv step across a geometry change", func() {
		ic.Plan(small)
		ic.Plan(g)
		ic.Load(x)
		pa.Pack(w, false, g.OutC, rows, outArea)
		ic.Mul(y, &pa)
		pb.Pack(dy, true, rows, outArea, g.OutC)
		ic.BeginGradW(dw)
		ic.AddGradW(&pb)
		ic.EndGradW(dw)
		pa.Pack(w, true, rows, g.OutC, outArea)
		ic.GradX(dx, dy, &pa)
	})
}

// TestIndirectGradXBuffersOnDemand: a layer that runs only the forward
// product and the weight gradient — the first of a network, whose input
// needs no gradient — never holds GradX's padded gradient or its
// column-gradient panel; GradX grows them on its first call and then runs
// without allocating.
func TestIndirectGradXBuffersOnDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 5, KW: 5, Stride: 1, Pad: 2}
	var ic IndirectConv
	if !ic.Plan(g) {
		t.Skipf("tier %s lowers %+v", KernelName(), g)
	}
	rows, outArea := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	x := RandN(rng, g.InC, g.InH, g.InW).Data
	w, dy := RandN(rng, g.OutC, rows).Data, RandN(rng, g.OutC, outArea).Data
	y, dw, dx := make([]float32, g.OutC*outArea), make([]float32, g.OutC*rows), make([]float32, len(x))
	var wA, wT PackedA
	var dyT PackedB
	wA.Pack(w, false, g.OutC, rows, outArea)
	wT.Pack(w, true, rows, g.OutC, outArea)
	for range 2 {
		ic.Plan(g)
		ic.Load(x)
		ic.Mul(y, &wA)
		dyT.Pack(dy, true, rows, outArea, g.OutC)
		ic.BeginGradW(dw)
		ic.AddGradW(&dyT)
		ic.EndGradW(dw)
	}
	if cap(ic.dxpad) != 0 || cap(ic.panel) != 0 {
		t.Fatalf("a params-only layer holds %d floats of padded gradient and %d of panel", cap(ic.dxpad), cap(ic.panel))
	}
	ic.GradX(dx, dy, &wT)
	if len(ic.dxpad) != len(ic.xpad) || len(ic.panel) != ic.kern.mr*outArea {
		t.Fatalf("GradX grew %d and %d floats, want %d and %d", len(ic.dxpad), len(ic.panel), len(ic.xpad), ic.kern.mr*outArea)
	}
	if raceEnabled {
		return
	}
	if got := testing.AllocsPerRun(20, func() { ic.GradX(dx, dy, &wT) }); got > 0 {
		t.Errorf("a warm GradX allocates %.1f objects per call, want 0", got)
	}
}
