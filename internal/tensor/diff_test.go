package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests: the rebuilt convolution data path (segment Im2Col and
// Col2Im, blocked-transpose packing, pre-packed operands) against the code it
// replaced, kept verbatim in parent_ref_test.go. Equality is bitwise — the
// repo's determinism contract is that no result bit moves — and every test
// walks all micro-kernel tiers this machine has, so `make test-kernels` and a
// plain `go test` both cover them.

// firstBitDiff returns the first index at which a and b differ in their bit
// patterns, or -1.
func firstBitDiff(a, b []float32) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// convGrid enumerates the geometries of the differential grid: K∈{1,3,5},
// stride∈{1,2}, pad∈{0,1,2} on non-square inputs, for each given channel
// count. Geometries with an empty output are skipped.
func convGrid(channels []int, visit func(g ConvGeom)) {
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, hw := range [][2]int{{6, 9}, {9, 5}, {8, 8}} {
					for _, c := range channels {
						g := ConvGeom{InC: c, InH: hw[0], InW: hw[1], OutC: 1, KH: k, KW: k, Stride: stride, Pad: pad}
						if g.InH+2*pad < k || g.InW+2*pad < k {
							continue
						}
						visit(g)
					}
				}
			}
		}
	}
}

func TestIm2ColCol2ImMatchParent(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	geoms := 0
	check := func(g ConvGeom) {
		g.Validate()
		geoms++
		size := g.InC * g.KH * g.KW * g.OutH() * g.OutW()
		x := RandN(rng, g.InC*g.InH*g.InW).Data
		// Stale contents must not show through: Im2Col overwrites fully.
		got, want := RandN(rng, size).Data, RandN(rng, size).Data
		Im2Col(x, g, got)
		refIm2Col(x, g, want)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("Im2Col %+v: element %d is %v, parent %v", g, i, got[i], want[i])
		}
		// Col2Im accumulates: start both from the same non-zero gradient.
		cols := RandN(rng, size).Data
		dx := RandN(rng, len(x)).Data
		dxRef := append([]float32(nil), dx...)
		Col2Im(cols, g, dx)
		refCol2Im(cols, g, dxRef)
		if i := firstBitDiff(dx, dxRef); i >= 0 {
			t.Fatalf("Col2Im %+v: element %d is %v, parent %v", g, i, dx[i], dxRef[i])
		}
	}
	convGrid([]int{1, 3}, check)
	// Rectangular kernels, a tap that only ever sees padding (1-wide input,
	// pad 2), and the zoo's 16×16 "same" geometry.
	for _, g := range []ConvGeom{
		{InC: 2, InH: 7, InW: 6, KH: 3, KW: 5, Stride: 1, Pad: 2},
		{InC: 2, InH: 7, InW: 6, KH: 5, KW: 2, Stride: 2, Pad: 1},
		{InC: 1, InH: 1, InW: 1, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{InC: 1, InH: 4, InW: 1, KH: 3, KW: 5, Stride: 3, Pad: 2},
		{InC: 8, InH: 16, InW: 16, KH: 5, KW: 5, Stride: 1, Pad: 2},
	} {
		check(g)
	}
	if geoms < 100 {
		t.Fatalf("grid shrank to %d geometries", geoms)
	}
}

func TestPackMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	dims := []int{1, 2, 5, 6, 7, 16, 17, 25}
	for _, w := range []int{4, 6, 8, 16} { // every tier's mr and nr
		for _, rows := range dims { // extent along the panel width
			for _, depth := range dims {
				for _, transposed := range []bool{false, true} {
					// The block sits inside a larger operand so offsets matter.
					m, k := rows+3, depth+2
					src := RandN(rng, m*k).Data
					size := roundUp(rows, w) * depth
					got, want := RandN(rng, size).Data, RandN(rng, size).Data
					name := fmt.Sprintf("w=%d rows=%d depth=%d T=%v", w, rows, depth, transposed)
					lda, ldb := storageStrides(transposed, transposed, m, k, m)
					packA(got, src, transposed, lda, 2, rows, 1, depth, w)
					refPackA(want, src, transposed, m, k, 2, rows, 1, depth, w)
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("packA %s: element %d is %v, parent %v", name, i, got[i], want[i])
					}
					// For B the roles swap: k rows of storage, m columns.
					packB(got, src, transposed, ldb, 1, depth, 2, rows, w)
					refPackB(want, src, transposed, k, m, 1, depth, 2, rows, w)
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("packB %s: element %d is %v, parent %v", name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// gemmShapes are (m, k, n) triples on both sides of smallGEMMFLOPs, with k
// across the kc boundary, n across nc, m across mc, and the three products of
// the zoo's convolutions (forward, dW, dcols) at full and pruned widths.
var gemmShapes = [][3]int{
	{1, 1, 1}, {3, 7, 5}, {8, 25, 256}, {4, 25, 256}, {8, 256, 25}, {25, 8, 256},
	{16, 200, 64}, {16, 64, 200}, {200, 16, 64}, {10, 125, 64},
	{7, 300, 33}, {13, 513, 19}, {5, 40, 530}, {130, 20, 18}, {33, 257, 520},
}

func TestBlockedDriverMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, kern := range kernelTiers {
		for _, s := range gemmShapes {
			m, k, n := s[0], s[1], s[2]
			for variant := 0; variant < 8; variant++ {
				aT, bT, acc := variant&1 != 0, variant&2 != 0, variant&4 != 0
				a, b := RandN(rng, m*k).Data, RandN(rng, k*n).Data
				got := RandN(rng, m*n).Data
				want := append([]float32(nil), got...)
				gemmBlocked(kern, got, a, b, aT, bT, m, k, n, 0, m, acc)
				refGemmBlocked(kern, want, a, b, aT, bT, m, k, n, 0, m, acc)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%s [%d %d %d] aT=%v bT=%v acc=%v: element %d is %v, parent %v",
						kern.name, m, k, n, aT, bT, acc, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGEMMPackedMatchesMatMul(t *testing.T) {
	defer func(name string) {
		if err := ForceKernel(name); err != nil {
			t.Fatal(err)
		}
	}(KernelName())
	rng := rand.New(rand.NewSource(34))
	var pa PackedA
	var pb PackedB
	direct, blocked := 0, 0
	for _, tier := range Kernels() {
		if err := ForceKernel(tier); err != nil {
			t.Fatal(err)
		}
		for _, s := range gemmShapes {
			m, k, n := s[0], s[1], s[2]
			if 2*m*k*n < smallGEMMFLOPs {
				direct++
			} else {
				blocked++
			}
			for variant := 0; variant < 8; variant++ {
				aT, bT, acc := variant&1 != 0, variant&2 != 0, variant&4 != 0
				a, b := RandN(rng, m*k).Data, RandN(rng, k*n).Data
				got := RandN(rng, m*n).Data
				want := append([]float32(nil), got...)
				// The operands are reused across shapes on purpose: stale
				// panels of a larger product must not leak into a smaller one.
				pa.Pack(a, aT, m, k, n)
				pb.Pack(b, bT, m, k, n)
				GEMMPacked(got, &pa, &pb, acc)
				gemm(want, a, b, aT, bT, m, k, n, acc)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%s [%d %d %d] aT=%v bT=%v acc=%v: element %d is %v, MatMul %v",
						tier, m, k, n, aT, bT, acc, i, got[i], want[i])
				}
			}
		}
	}
	if direct == 0 || blocked == 0 {
		t.Fatalf("shapes cover %d direct and %d blocked products; need both", direct, blocked)
	}
}

func TestGEMMPackedRejectsMismatchedOperands(t *testing.T) {
	var pa PackedA
	var pb PackedB
	pa.Pack(make([]float32, 6), false, 2, 3, 4)
	pb.Pack(make([]float32, 15), false, 2, 3, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("GEMMPacked accepted operands packed for different products")
		}
	}()
	GEMMPacked(make([]float32, 8), &pa, &pb, false)
}
