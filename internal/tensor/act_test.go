package tensor

import (
	"flag"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// Differential tests of the ExpInto, SigmoidInto and TanhInto kernels against
// the scalar loops over math.Exp and math.Tanh, which define the result.
// Equality is by bit pattern; under the race detector a NaN matches any NaN,
// as for the small-product kernels (oracleDiff).

var exhaustive = flag.Bool("exhaustive", false, "sweep all 2^32 float32 inputs through SigmoidInto and TanhInto (make test-exhaustive)")

// act32 pairs a float32 slice function with its scalar definition.
type act32 struct {
	name         string
	into, scalar func(dst, src []float32)
}

var acts32 = []act32{
	{"SigmoidInto", SigmoidInto, sigmoidScalar},
	{"TanhInto", TanhInto, tanhScalar},
}

// oracleDiff64 is oracleDiff for float64.
func oracleDiff64(got, want []float64) int {
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(raceEnabled && g != g && w != w) {
			return i
		}
	}
	return -1
}

// actTiers calls visit with every tier of this machine that has activation
// kernels switched on, and skips the test when there is none.
func actTiers(t *testing.T, visit func(tier string)) {
	t.Helper()
	defer func(name string) {
		if err := ForceKernel(name); err != nil {
			t.Fatal(err)
		}
	}(KernelName())
	found := false
	for _, kern := range kernelTiers {
		if kern.expInto == nil {
			continue
		}
		found = true
		if err := ForceKernel(kern.name); err != nil {
			t.Fatal(err)
		}
		visit(kern.name)
	}
	if !found {
		t.Skipf("no tier of %v has activation kernels", Kernels())
	}
}

// actSpecials32 are the float32 inputs where the kernels leave their plain
// path or the standard library changes branch: zeros, subnormals,
// infinities, quiet and signalling NaNs of both signs, math.tanh's branch
// boundaries 0.625 and 0.5·MAXLOG with their neighbours, the arguments
// where exp's k = round(x·log2e) sits on a tie, and the ends of the range
// the kernels clamp to.
func actSpecials32() []float32 {
	v := []float32{
		0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), math.Float32frombits(0x80000001),
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
		math.Float32frombits(0x00800000), math.Float32frombits(0x80800000),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
		math.Float32frombits(0x7f800001), math.Float32frombits(0xff800001),
		math.Float32frombits(0x7fc12345), math.Float32frombits(0xffffffff),
		math.MaxFloat32, -math.MaxFloat32,
	}
	around := func(x float64) {
		f := float32(x)
		for _, s := range []float32{1, -1} {
			v = append(v, s*f, s*math.Nextafter32(f, 0), s*math.Nextafter32(f, math.MaxFloat32))
		}
	}
	for _, x := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01, 8.8029691931113054295988e+01,
		16.6, 37.5, 103.9, 104, 354, 354.5, 708, 709, 709.78, 710, 745.2, 1e10} {
		around(x)
	}
	for j := -160; j <= 160; j++ {
		around((float64(j) + 0.5) * math.Ln2)
		around((float64(j) + 0.5) * math.Ln2 / 2) // tanh doubles its argument
	}
	return v
}

// actSpecials64 is the same for ExpInto: the ties reach over the whole
// exponent range, and ±708/709 are where the kernel hands over to math.Exp.
func actSpecials64() []float64 {
	v := []float64{
		0, math.Copysign(0, -1),
		math.Float64frombits(1), math.Float64frombits(0x8000000000000001),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x0010000000000000), math.Float64frombits(0x8010000000000000),
		math.Inf(1), math.Inf(-1),
		math.NaN(), math.Copysign(math.NaN(), -1),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff0000000000001),
		math.Float64frombits(0x7ff8000012345678), math.Float64frombits(0xffffffffffffffff),
		math.MaxFloat64, -math.MaxFloat64,
	}
	around := func(x float64) {
		for _, s := range []float64{1, -1} {
			v = append(v, s*x, s*math.Nextafter(x, 0), s*math.Nextafter(x, math.Inf(1)))
		}
	}
	for _, x := range []float64{707.5, 708, 708.4, 709, 709.5, 7.09782712893384e+02, 710, 744.44, 745.14, 746, 1e10, 1e300,
		float64(1 << 31), float64(1<<31) * math.Ln2} {
		around(x)
	}
	for j := -1080; j <= 1030; j++ {
		around((float64(j) + 0.5) * math.Ln2)
	}
	return v
}

// TestActKernelsMatchScalarLoops runs every length 0–70 from every start
// offset 0–7 within one allocation, in place and out of place, over random
// values with the specials sown in, with sentinels behind dst.
func TestActKernelsMatchScalarLoops(t *testing.T) {
	sp32, sp64 := actSpecials32(), actSpecials64()
	actTiers(t, func(tier string) {
		rng := rand.New(rand.NewSource(181))
		const guard = 8
		for n := 0; n <= 70; n++ {
			for off := 0; off < 8; off++ {
				for _, inPlace := range []bool{false, true} {
					for _, rate := range []int{0, 3, 40} {
						src := make([]float32, off+n)[off:]
						for i := range src {
							src[i] = float32(rng.NormFloat64() * 4)
							if rate > 0 && rng.Intn(rate) == 0 {
								src[i] = sp32[rng.Intn(len(sp32))]
							}
						}
						for _, a := range acts32 {
							got := RandN(rng, off+n+guard).Data[off:]
							want := append([]float32(nil), got...)
							a.scalar(want[:n], src)
							if inPlace {
								copy(got, src)
								a.into(got[:n], got[:n])
							} else {
								a.into(got[:n], src)
							}
							if i := oracleDiff(got, want); i >= 0 {
								t.Fatalf("%s %s n=%d off=%d inPlace=%v specials=1/%d: element %d is %x, scalar loop %x",
									tier, a.name, n, off, inPlace, rate, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
							}
						}

						src64 := make([]float64, off+n)[off:]
						for i := range src64 {
							src64[i] = rng.NormFloat64() * 30
							if rate > 0 && rng.Intn(rate) == 0 {
								src64[i] = sp64[rng.Intn(len(sp64))]
							}
						}
						got := make([]float64, off+n+guard)[off:]
						for i := range got {
							got[i] = rng.NormFloat64()
						}
						want := append([]float64(nil), got...)
						expScalar(want[:n], src64)
						if inPlace {
							copy(got, src64)
							ExpInto(got[:n], got[:n])
						} else {
							ExpInto(got[:n], src64)
						}
						if i := oracleDiff64(got, want); i >= 0 {
							t.Fatalf("%s ExpInto n=%d off=%d inPlace=%v specials=1/%d: element %d is %x, scalar loop %x",
								tier, n, off, inPlace, rate, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	})
}

// TestActKernelsOnSpecials puts every special value through every lane
// position, alone among plain values.
func TestActKernelsOnSpecials(t *testing.T) {
	sp32, sp64 := actSpecials32(), actSpecials64()
	actTiers(t, func(tier string) {
		for lane := 0; lane < 7; lane++ {
			src, got, want := make([]float32, 7), make([]float32, 7), make([]float32, 7)
			for _, s := range sp32 {
				for i := range src {
					src[i] = 0.25 * float32(i+1)
				}
				src[lane] = s
				for _, a := range acts32 {
					a.into(got, src)
					a.scalar(want, src)
					if i := oracleDiff(got, want); i >= 0 {
						t.Fatalf("%s %s(%x) in lane %d: element %d is %x, scalar loop %x", tier, a.name, math.Float32bits(s), lane, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
			src64, got64, want64 := make([]float64, 7), make([]float64, 7), make([]float64, 7)
			for _, s := range sp64 {
				for i := range src64 {
					src64[i] = 0.25 * float64(i+1)
				}
				src64[lane] = s
				ExpInto(got64, src64)
				expScalar(want64, src64)
				if i := oracleDiff64(got64, want64); i >= 0 {
					t.Fatalf("%s ExpInto(%x) in lane %d: element %d is %x, scalar loop %x", tier, math.Float64bits(s), lane, i, math.Float64bits(got64[i]), math.Float64bits(want64[i]))
				}
			}
		}
	})
}

// sweep32 compares a.into with a.scalar on every stride-th float32 bit
// pattern, starting at first, and returns the first input that differs.
func sweep32(a act32, first, stride uint64) (bad uint32, got, want float32, ok bool) {
	const chunk = 1 << 12
	src, g, w := make([]float32, chunk), make([]float32, chunk), make([]float32, chunk)
	for bits := first; bits < 1<<32; {
		n := 0
		for ; n < chunk && bits < 1<<32; n, bits = n+1, bits+stride {
			src[n] = math.Float32frombits(uint32(bits))
		}
		a.into(g[:n], src[:n])
		a.scalar(w[:n], src[:n])
		if i := oracleDiff(g[:n], w[:n]); i >= 0 {
			return math.Float32bits(src[i]), g[i], w[i], false
		}
	}
	return 0, 0, 0, true
}

// TestActKernelsStridedSweep covers every 251st float32 bit pattern (251 is
// prime, so every exponent and every low-bit pattern turns up) and, for
// ExpInto, random float64 bit patterns and a dense walk over the range it
// computes itself.
func TestActKernelsStridedSweep(t *testing.T) {
	actTiers(t, func(tier string) {
		for _, a := range acts32 {
			if bad, got, want, ok := sweep32(a, 0, 251); !ok {
				t.Fatalf("%s %s(%x) = %x, scalar loop %x", tier, a.name, bad, math.Float32bits(got), math.Float32bits(want))
			}
		}
		rng := rand.New(rand.NewSource(182))
		const chunk = 1 << 12
		src, got, want := make([]float64, chunk), make([]float64, chunk), make([]float64, chunk)
		for round := 0; round < 256; round++ {
			for i := range src {
				switch round % 4 {
				case 0:
					src[i] = math.Float64frombits(rng.Uint64())
				case 1:
					src[i] = (rng.Float64()*2 - 1) * 750
				case 2:
					src[i] = rng.NormFloat64() * 8
				default:
					// A tie of k, give or take a few ulps.
					tie := (float64(rng.Intn(2100)-1075) + 0.5) * math.Ln2
					src[i] = math.Float64frombits(math.Float64bits(tie) + uint64(rng.Intn(9)) - 4)
				}
			}
			ExpInto(got, src)
			expScalar(want, src)
			if i := oracleDiff64(got, want); i >= 0 {
				t.Fatalf("%s ExpInto(%x) = %x, scalar loop %x", tier, math.Float64bits(src[i]), math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// TestActKernelsExhaustive is the whole float32 domain through the active
// tier's kernels (the assembly tiers share them); about a minute per function
// on two cores.
func TestActKernelsExhaustive(t *testing.T) {
	if !*exhaustive {
		t.Skip("run with -exhaustive (make test-exhaustive)")
	}
	if activeKernel.Load().sigmoidInto == nil {
		t.Skipf("tier %s has no activation kernels", KernelName())
	}
	shards := uint64(runtime.GOMAXPROCS(0))
	for _, a := range acts32 {
		var wg sync.WaitGroup
		for s := uint64(0); s < shards; s++ {
			wg.Add(1)
			go func(s uint64) {
				defer wg.Done()
				if bad, got, want, ok := sweep32(a, s, shards); !ok {
					t.Errorf("%s(%x) = %x, scalar loop %x", a.name, bad, math.Float32bits(got), math.Float32bits(want))
				}
			}(s)
		}
		wg.Wait()
	}
}

// FuzzActivations reads its input as float32 and float64 values and checks
// all three functions, in place, against their scalar loops on every tier.
func FuzzActivations(f *testing.F) {
	f.Add([]byte{0, 0, 0x20, 0x3f, 0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0xff, 1, 0, 0, 0x80, 0x5e, 0x0f, 0x30, 0x42})
	f.Add([]byte("\x00\x00\x00\x00\x00\x20\x86\xc0\x00\x00\x00\x00\x00\x28\x86\x40\xef\x39\xfa\xfe\x42\x2e\xe6\x3f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src32 := make([]float32, len(data)/4)
		for i := range src32 {
			src32[i] = math.Float32frombits(uint32(data[4*i]) | uint32(data[4*i+1])<<8 | uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24)
		}
		src64 := make([]float64, len(data)/8)
		for i := range src64 {
			var bits uint64
			for b := 0; b < 8; b++ {
				bits |= uint64(data[8*i+b]) << (8 * b)
			}
			src64[i] = math.Float64frombits(bits)
		}
		defer func(name string) {
			if err := ForceKernel(name); err != nil {
				t.Fatal(err)
			}
		}(KernelName())
		for _, tier := range Kernels() {
			if err := ForceKernel(tier); err != nil {
				t.Fatal(err)
			}
			for _, a := range acts32 {
				got, want := append([]float32(nil), src32...), make([]float32, len(src32))
				a.into(got, got)
				a.scalar(want, src32)
				if i := oracleDiff(got, want); i >= 0 {
					t.Fatalf("%s %s(%x) = %x, scalar loop %x", tier, a.name, math.Float32bits(src32[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
			got, want := append([]float64(nil), src64...), make([]float64, len(src64))
			ExpInto(got, got)
			expScalar(want, src64)
			if i := oracleDiff64(got, want); i >= 0 {
				t.Fatalf("%s ExpInto(%x) = %x, scalar loop %x", tier, math.Float64bits(src64[i]), math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// TestActLengthMismatchPanics pins the one misuse the drivers check.
func TestActLengthMismatchPanics(t *testing.T) {
	for name, call := range map[string]func(){
		"ExpInto":     func() { ExpInto(make([]float64, 3), make([]float64, 4)) },
		"SigmoidInto": func() { SigmoidInto(make([]float32, 5), make([]float32, 4)) },
		"TanhInto":    func() { TanhInto(make([]float32, 3), make([]float32, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted slices of different lengths", name)
				}
			}()
			call()
		}()
	}
}

// fmaOff reports whether this process was started with the runtime's FMA
// detection switched off, which sends math.Exp down its unfused path.
func fmaOff() bool { return strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") }

// TestActKernelsFollowTheTier pins which tiers have the kernels: none on
// generic (FEDMP_KERNEL=generic is the scalar loops, so a whole run under it
// is the oracle of the same run under sse or avx2), all three or none on
// every assembly tier, and on a machine of the fused group — where this
// toolchain's math.Exp is the sequence the kernels repeat — all three.
func TestActKernelsFollowTheTier(t *testing.T) {
	for _, k := range kernelTiers {
		has := k.expInto != nil
		if (k.sigmoidInto != nil) != has || (k.tanhInto != nil) != has {
			t.Errorf("tier %s has some activation kernels but not all", k.name)
		}
		if k.name == "generic" && has {
			t.Error("the generic tier has activation kernels; it must stay the scalar loops")
		}
		if k.name != "generic" && has != (cpuFused && !fmaOff()) {
			t.Errorf("tier %s, cpuFused=%v, cpu.fma=off %v: activation kernels on=%v (if off, math.Exp or math.Tanh of this toolchain no longer do what act_amd64.s repeats)",
				k.name, cpuFused, fmaOff(), has)
		}
	}
}

// TestActProbeTurnsKernelsOffWithoutFMA runs this test binary again with
// GODEBUG=cpu.fma=off. CPUID still reports FMA there, so the tiers stay as
// they are, but math.Exp takes its unfused path and the kernels no longer
// match it: the start-up probe has to notice and leave every tier on the
// scalar loops, and the three functions must still equal them.
func TestActProbeTurnsKernelsOffWithoutFMA(t *testing.T) {
	if fmaOff() {
		for _, k := range kernelTiers {
			if k.expInto != nil || k.sigmoidInto != nil || k.tanhInto != nil {
				t.Errorf("tier %s kept its activation kernels although math.Exp runs unfused", k.name)
			}
		}
		rng := rand.New(rand.NewSource(183))
		src, src64 := RandN(rng, 1000).Data, make([]float64, 1000)
		for i, v := range src {
			src64[i] = float64(v) * 20
		}
		for _, tier := range Kernels() {
			forceKernel(t, tier)
			for _, a := range acts32 {
				got, want := make([]float32, len(src)), make([]float32, len(src))
				a.into(got, src)
				a.scalar(want, src)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Errorf("%s %s: element %d differs from the scalar loop", tier, a.name, i)
				}
			}
			got, want := make([]float64, len(src)), make([]float64, len(src))
			ExpInto(got, src64)
			expScalar(want, src64)
			if i := oracleDiff64(got, want); i >= 0 {
				t.Errorf("%s ExpInto: element %d differs from the scalar loop", tier, i)
			}
		}
		return
	}
	if !cpuFused {
		t.Skip("no FMA on this machine: the kernels are never on")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^TestActProbeTurnsKernelsOffWithoutFMA$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestActProbeTurnsKernelsOffWithoutFMA") {
		t.Fatalf("child with GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}
