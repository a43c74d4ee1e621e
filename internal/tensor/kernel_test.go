package tensor

import (
	"math"
	"math/big"
	"math/rand"
	"os"
	"testing"
)

// forceKernel switches the active tier for one test and restores it on
// cleanup.
func forceKernel(t testing.TB, name string) {
	t.Helper()
	prev := KernelName()
	if err := ForceKernel(name); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := ForceKernel(prev); err != nil {
			t.Fatal(err)
		}
	})
}

// TestKernelRegistry pins the registry shape: the generic tier always
// exists, the active tier is registered, and unknown names are rejected.
func TestKernelRegistry(t *testing.T) {
	names := Kernels()
	if len(names) == 0 || names[0] != "generic" {
		t.Fatalf("Kernels() = %v, want generic first", names)
	}
	active := KernelName()
	found := false
	for _, n := range names {
		if n == active {
			found = true
		}
	}
	if !found {
		t.Errorf("active kernel %q not in registry %v", active, names)
	}
	if err := ForceKernel("no-such-tier"); err == nil {
		t.Error("ForceKernel accepted an unknown tier")
	}
	for _, k := range kernelTiers {
		if k.mc%k.mr != 0 {
			t.Errorf("tier %s: mc=%d not a multiple of mr=%d (pack buffer would overrun)", k.name, k.mc, k.mr)
		}
		if k.nc%k.nr != 0 {
			t.Errorf("tier %s: nc=%d not a multiple of nr=%d", k.name, k.nc, k.nr)
		}
		if k.mr > mrMax || k.nr > nrMax {
			t.Errorf("tier %s: %dx%d tile exceeds the %dx%d edge scratch", k.name, k.mr, k.nr, mrMax, nrMax)
		}
		if k.fused != cpuFused {
			t.Errorf("tier %s: fused=%v but machine fused=%v — tiers would diverge bitwise", k.name, k.fused, cpuFused)
		}
	}
}

// TestForcedKernelMatchesEnv asserts the FEDMP_KERNEL override took effect
// when it names a tier this machine has (make check runs the package once
// per tier through this variable).
func TestForcedKernelMatchesEnv(t *testing.T) {
	want := os.Getenv("FEDMP_KERNEL")
	if want == "" {
		t.Skip("FEDMP_KERNEL not set")
	}
	if findKernel(want) == nil {
		t.Skipf("tier %q not available on this machine (have %v)", want, Kernels())
	}
	if got := KernelName(); got != want {
		t.Fatalf("FEDMP_KERNEL=%s but active kernel is %s", want, got)
	}
}

// TestKernelTiersBitIdentical is the cross-tier contract: over the existing
// property grid, every available tier must produce byte-for-byte identical
// results for all four transpose combinations, accumulate on and off. On
// FMA machines every tier rounds each accumulation once (hardware FMA or
// fmaf32); elsewhere every tier multiplies then adds — either way the bits
// must match, including NaN/Inf propagation from special inputs.
func TestKernelTiersBitIdentical(t *testing.T) {
	tiers := Kernels()
	if len(tiers) < 2 {
		t.Skipf("only %v available; nothing to cross-check", tiers)
	}
	rng := rand.New(rand.NewSource(77))
	type gcase struct {
		a, b    *Tensor
		aT, bT  bool
		m, k, n int
		acc     bool
		seed    *Tensor
	}
	var cases []gcase
	for _, m := range propShapes {
		for _, k := range propShapes {
			for _, n := range propShapes {
				for _, tr := range []struct{ aT, bT bool }{{false, false}, {true, false}, {false, true}} {
					ash := [2]int{m, k}
					if tr.aT {
						ash = [2]int{k, m}
					}
					bsh := [2]int{k, n}
					if tr.bT {
						bsh = [2]int{n, k}
					}
					acc := (m+k+n)%2 == 0
					cases = append(cases, gcase{
						a: RandN(rng, ash[0], ash[1]), b: RandN(rng, bsh[0], bsh[1]),
						aT: tr.aT, bT: tr.bT, m: m, k: k, n: n,
						acc: acc, seed: RandN(rng, m, n),
					})
				}
			}
		}
	}
	// A shape large enough to engage every blocking level of the widest tier.
	big1 := gcase{a: RandN(rng, 150, 300), b: RandN(rng, 300, 530), m: 150, k: 300, n: 530, acc: true, seed: RandN(rng, 150, 530)}
	cases = append(cases, big1)
	// The small products of a pruned LSTM's train step, column tails
	// included: under smallGEMMFLOPs, where the generic tier runs the scalar
	// loops and the assembly tiers of an AVX machine their small-product
	// kernels, in every storage form.
	for _, s := range [][3]int{{8, 24, 96}, {96, 8, 24}, {8, 96, 24}, {8, 19, 76}, {76, 8, 19}, {8, 76, 19}, {2, 40, 10}, {5, 13, 52}} {
		m, k, n := s[0], s[1], s[2]
		for variant := 0; variant < 8; variant++ {
			cases = append(cases, gcase{
				a: RandN(rng, m*k), b: RandN(rng, k*n),
				aT: variant&1 != 0, bT: variant&2 != 0, m: m, k: k, n: n,
				acc: variant&4 != 0, seed: RandN(rng, m, n),
			})
		}
	}

	results := make([][][]float32, len(tiers))
	for ti, tier := range tiers {
		forceKernel(t, tier)
		results[ti] = make([][]float32, len(cases))
		for ci, gc := range cases {
			got := gc.seed.Clone()
			gemm(got.Data, gc.a.Data, gc.b.Data, gc.aT, gc.bT, gc.m, gc.k, gc.n, gc.acc)
			results[ti][ci] = got.Data
		}
	}
	for ci := range cases {
		ref := results[0][ci]
		for ti := 1; ti < len(tiers); ti++ {
			got := results[ti][ci]
			for j := range ref {
				if math.Float32bits(ref[j]) != math.Float32bits(got[j]) {
					gc := cases[ci]
					t.Fatalf("case %d (m=%d k=%d n=%d aT=%v bT=%v acc=%v) elem %d: %s=%x vs %s=%x",
						ci, gc.m, gc.k, gc.n, gc.aT, gc.bT, gc.acc, j,
						tiers[0], math.Float32bits(ref[j]), tiers[ti], math.Float32bits(got[j]))
				}
			}
		}
	}
}

// TestKernelTiersMatchReference re-runs the float64 closeness check per tier
// so a tier that is bit-identical to another but wrong (shared bug) cannot
// slip through on identity alone.
func TestKernelTiersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, tier := range Kernels() {
		forceKernel(t, tier)
		for _, sh := range [][3]int{{64, 64, 64}, {65, 17, 65}, {128, 96, 72}} {
			m, k, n := sh[0], sh[1], sh[2]
			a := RandN(rng, m, k)
			b := RandN(rng, k, n)
			got := New(m, n)
			gemm(got.Data, a.Data, b.Data, false, false, m, k, n, false)
			want := make([]float32, m*n)
			refGEMM(want, a.Data, b.Data, false, false, m, k, n, false)
			if d := maxAbsDiff(got.Data, want); d > 1e-4 {
				t.Errorf("tier %s (%dx%dx%d): max |diff| vs reference %g", tier, m, k, n, d)
			}
		}
	}
}

// refFMA32 is the oracle for fmaf32: the exact a·b+c in 200-bit precision,
// rounded once to float32 (round to nearest even).
func refFMA32(a, b, c float32) float32 {
	ba := new(big.Float).SetPrec(200).SetFloat64(float64(a))
	bb := new(big.Float).SetPrec(200).SetFloat64(float64(b))
	bc := new(big.Float).SetPrec(200).SetFloat64(float64(c))
	r := new(big.Float).SetPrec(200).Mul(ba, bb)
	r.Add(r, bc)
	f, _ := r.Float32()
	return f
}

// TestFmaf32CorrectlyRounded checks fmaf32 against the big.Float oracle on
// random inputs, magnitude-skewed inputs (residual cases), and adversarial
// near-midpoint patterns where naive double rounding via float64 fails.
func TestFmaf32CorrectlyRounded(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	check := func(a, b, c float32) {
		t.Helper()
		got := fmaf32(a, b, c)
		want := refFMA32(a, b, c)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("fmaf32(%x, %x, %x) = %x, want %x",
				math.Float32bits(a), math.Float32bits(b), math.Float32bits(c),
				math.Float32bits(got), math.Float32bits(want))
		}
	}
	for i := 0; i < 200000; i++ {
		a := float32(rng.NormFloat64())
		b := float32(rng.NormFloat64())
		c := float32(rng.NormFloat64())
		check(a, b, c)
	}
	// Skewed magnitudes: c dominates or vanishes against a·b, exercising the
	// TwoSum residual and the round-to-odd adjustment.
	for i := 0; i < 200000; i++ {
		a := float32(rng.NormFloat64())
		b := float32(rng.NormFloat64())
		scale := math.Ldexp(1, rng.Intn(81)-40)
		c := float32(rng.NormFloat64() * scale)
		check(a, b, c)
	}
	// Bit-pattern fuzz, including subnormals and huge values.
	for i := 0; i < 200000; i++ {
		a := math.Float32frombits(rng.Uint32())
		b := math.Float32frombits(rng.Uint32())
		c := math.Float32frombits(rng.Uint32())
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) || math.IsNaN(float64(c)) {
			continue // NaN result checked separately (payloads differ legitimately)
		}
		if math.IsInf(float64(a), 0) || math.IsInf(float64(b), 0) || math.IsInf(float64(c), 0) {
			continue
		}
		got := fmaf32(a, b, c)
		want := refFMA32(a, b, c)
		// big.Float has no Inf-on-overflow: Float32 saturates differently;
		// accept either representation when the exact value overflows. It
		// has no −0 either, so exact-zero results are compared by value.
		if math.IsInf(float64(got), 0) && math.IsInf(float64(want), 0) {
			continue
		}
		if got == 0 && want == 0 {
			continue
		}
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("fmaf32(%x, %x, %x) = %x, want %x",
				math.Float32bits(a), math.Float32bits(b), math.Float32bits(c),
				math.Float32bits(got), math.Float32bits(want))
		}
	}
}

// TestFmaf32Specials pins NaN/Inf propagation.
func TestFmaf32Specials(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	if v := fmaf32(nan, 1, 1); !math.IsNaN(float64(v)) {
		t.Errorf("fmaf32(NaN,1,1) = %v", v)
	}
	if v := fmaf32(1, 1, nan); !math.IsNaN(float64(v)) {
		t.Errorf("fmaf32(1,1,NaN) = %v", v)
	}
	if v := fmaf32(inf, 1, 1); !math.IsInf(float64(v), 1) {
		t.Errorf("fmaf32(Inf,1,1) = %v", v)
	}
	if v := fmaf32(inf, 1, -inf); !math.IsNaN(float64(v)) {
		t.Errorf("fmaf32(Inf,1,-Inf) = %v", v)
	}
	if v := fmaf32(-inf, 2, 0); !math.IsInf(float64(v), -1) {
		t.Errorf("fmaf32(-Inf,2,0) = %v", v)
	}
	if v := fmaf32(0, 0, 0); v != 0 {
		t.Errorf("fmaf32(0,0,0) = %v", v)
	}
	// Overflow in the float32 range but not in float64: must round to Inf.
	huge := float32(3e38)
	if v := fmaf32(huge, huge, 0); !math.IsInf(float64(v), 1) {
		t.Errorf("fmaf32(3e38,3e38,0) = %v", v)
	}
}
