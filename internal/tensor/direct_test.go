package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests of the small-product kernels against the scalar loops
// of gemmDirectScalar, which define the result. Equality is by bit pattern,
// NaN payloads included — except under the race detector, see oracleDiff.

// specials are the values the oracle tests sow into their operands: both
// zeros, the smallest and largest denormals, both infinities, and a NaN of
// each sign (0·Inf and Inf−Inf produce the negative one on x86).
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x807fffff),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
}

// sowSpecials overwrites about one element in rate with a special value.
func sowSpecials(rng *rand.Rand, v []float32, rate int) {
	for i := range v {
		if rng.Intn(rate) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
}

// oracleDiff is firstBitDiff against the scalar loops' result. When two NaNs
// meet, x86 keeps the first operand's payload, and which operand the compiler
// puts first in the scalar loops is its own choice: the kernels repeat the
// order of the plain build, the race detector's instrumentation makes the
// compiler pick another. Under -race, and only there, the oracle therefore
// no longer defines payloads and a NaN matches any NaN.
func oracleDiff(got, want []float32) int {
	if !raceEnabled {
		return firstBitDiff(got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

// directTiers calls visit with every tier of this machine that has
// small-product kernels active, and skips the test when there is none.
func directTiers(t *testing.T, visit func(kern *gemmKernel)) {
	t.Helper()
	defer func(name string) {
		if err := ForceKernel(name); err != nil {
			t.Fatal(err)
		}
	}(KernelName())
	found := false
	for _, kern := range kernelTiers {
		if kern.directChain == nil {
			continue
		}
		found = true
		if err := ForceKernel(kern.name); err != nil {
			t.Fatal(err)
		}
		visit(kern)
	}
	if !found {
		t.Skipf("no tier of %v has small-product kernels", Kernels())
	}
}

func TestDirectKernelMatchesScalarLoops(t *testing.T) {
	directTiers(t, func(kern *gemmKernel) {
		rng := rand.New(rand.NewSource(91))
		for m := 1; m <= 20; m++ {
			for n := 1; n <= 140; n++ {
				k := 1 + rng.Intn(40)
				// Plain operands on most shapes, specials on the rest: a
				// NaN or Inf soon floods C and hides everything behind it.
				rate := 0
				switch rng.Intn(4) {
				case 0:
					rate = 7
				case 1:
					rate = 60
				}
				for variant := 0; variant < 8; variant++ {
					aT, bT, acc := variant&1 != 0, variant&2 != 0, variant&4 != 0
					a, b := RandN(rng, m*k).Data, RandN(rng, k*n).Data
					// Sentinels after C catch a store past the last row.
					got := RandN(rng, m*n+16).Data
					if rate > 0 {
						sowSpecials(rng, a, rate)
						sowSpecials(rng, b, rate)
						sowSpecials(rng, got[:m*n], rate)
					}
					want := append([]float32(nil), got...)
					gemmDirect(got, a, b, aT, bT, m, k, n, acc)
					gemmDirectScalar(want, a, b, aT, bT, m, k, n, acc)
					if i := oracleDiff(got, want); i >= 0 {
						t.Fatalf("%s [%d %d %d] aT=%v bT=%v acc=%v specials=1/%d: element %d is %x, scalar loops %x",
							kern.name, m, k, n, aT, bT, acc, rate, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	})
}

// TestGEMMPackedDirectMatchesScalarLoops takes the same oracle through the
// packed entry points on every tier: all four storage forms — Aᵀ·Bᵀ exists
// only here — with the PackedB of a B stored [n,k] reused for several left
// operands, which is the transposed copy's reason to exist; the same product
// through MatMulTBInto must agree too.
func TestGEMMPackedDirectMatchesScalarLoops(t *testing.T) {
	defer func(name string) {
		if err := ForceKernel(name); err != nil {
			t.Fatal(err)
		}
	}(KernelName())
	var pa PackedA
	var pb PackedB
	for _, tier := range Kernels() {
		if err := ForceKernel(tier); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(92))
		for trial := 0; trial < 600; trial++ {
			m, k, n := 1+rng.Intn(20), 1+rng.Intn(40), 1+rng.Intn(140)
			if 2*m*k*n >= smallGEMMFLOPs {
				continue
			}
			aT, bT, acc := trial&1 != 0, trial&2 != 0, trial&4 != 0
			b := RandN(rng, k*n).Data
			if trial%3 == 0 {
				sowSpecials(rng, b, 9)
			}
			pb.Pack(b, bT, m, k, n)
			for rep := 0; rep < 3; rep++ {
				a := RandN(rng, m*k).Data
				got := RandN(rng, m*n).Data
				if trial%3 == 0 {
					sowSpecials(rng, a, 9)
					sowSpecials(rng, got, 9)
				}
				want := append([]float32(nil), got...)
				plain := append([]float32(nil), got...)
				pa.Pack(a, aT, m, k, n)
				GEMMPacked(got, &pa, &pb, acc)
				gemmDirectScalar(want, a, b, aT, bT, m, k, n, acc)
				if i := oracleDiff(got, want); i >= 0 {
					t.Fatalf("%s [%d %d %d] aT=%v bT=%v acc=%v: GEMMPacked element %d is %x, scalar loops %x",
						tier, m, k, n, aT, bT, acc, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
				if !aT && bT {
					MatMulTBInto(FromSlice(plain, m, n), FromSlice(a, m, k), FromSlice(b, n, k), acc)
					if i := oracleDiff(plain, want); i >= 0 {
						t.Fatalf("%s [%d %d %d] acc=%v: MatMulTBInto element %d is %x, scalar loops %x",
							tier, m, k, n, acc, i, math.Float32bits(plain[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestPackRowsMatchesPack multiplies operands whose rows sit apart in a
// larger array — a timestep of an [N,T,D] activation — through PackRows and
// demands the bits of the same rows gathered and packed with Pack, on every
// tier and both sides of smallGEMMFLOPs.
func TestPackRowsMatchesPack(t *testing.T) {
	defer func(name string) {
		if err := ForceKernel(name); err != nil {
			t.Fatal(err)
		}
	}(KernelName())
	var pa, qa PackedA
	var pb, qb PackedB
	for _, tier := range Kernels() {
		if err := ForceKernel(tier); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(93))
		for _, s := range [][3]int{{1, 1, 1}, {8, 16, 96}, {8, 19, 76}, {96, 8, 24}, {76, 8, 19}, {5, 3, 7}, {64, 16, 128}, {128, 64, 16}, {9, 300, 33}} {
			m, k, n := s[0], s[1], s[2]
			for _, acc := range []bool{false, true} {
				// Rows of A and B are steps apart, as timestep 2 of 5.
				const steps, at = 5, 2
				wideA, wideB := RandN(rng, m*steps*k).Data, RandN(rng, k*steps*n).Data
				a, b := make([]float32, m*k), make([]float32, k*n)
				gatherRows(a, wideA[at*k:], steps*k, m, k)
				gatherRows(b, wideB[at*n:], steps*n, k, n)
				got := RandN(rng, m*n).Data
				want := append([]float32(nil), got...)
				pa.PackRows(wideA[at*k:], steps*k, m, k, n)
				pb.PackRows(wideB[at*n:], steps*n, m, k, n)
				GEMMPacked(got, &pa, &pb, acc)
				qa.Pack(a, false, m, k, n)
				qb.Pack(b, false, m, k, n)
				GEMMPacked(want, &qa, &qb, acc)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%s [%d %d %d] acc=%v: PackRows element %d is %v, Pack %v", tier, m, k, n, acc, i, got[i], want[i])
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PackRows accepted an operand shorter than its last row")
		}
	}()
	pa.PackRows(make([]float32, 3*10+3), 10, 4, 4, 2)
}
