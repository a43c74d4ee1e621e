package tensor

import (
	"fmt"
	"math"
	"os"
	"sync/atomic"
)

// This file owns the micro-kernel tier registry. The blocked GEMM driver in
// gemm.go is geometry-agnostic: it packs panels and walks tiles using the
// mr/nr/mc/nc of whichever gemmKernel is active, so adding a wider kernel is
// a registry entry plus an assembly routine, not a driver rewrite.
//
// Tiers (best available selected at start-up, FEDMP_KERNEL overrides):
//
//	generic  portable Go micro-tile, every architecture
//	sse      4×8 assembly micro-tile, amd64
//	avx2     6×16 AVX2+FMA assembly micro-tile, amd64 with AVX2/FMA/OS-YMM
//
// Accumulation semantics are decided per machine, not per tier: on CPUs with
// FMA the "sse" tier runs a fused 4×8 variant and the generic tier emulates a
// correctly-rounded float32 FMA in software (fmaf32), so every tier available
// on one machine produces bit-identical results — the property the kernel
// tests pin. Machines without FMA keep the original multiply-then-add
// semantics in both of their tiers. Cross-*machine* bit-identity between the
// two groups is deliberately given up; it was never promised (the repo's
// determinism guarantees are same-seed-same-host).
//
// kc is shared by every tier (kcGEMM): the K dimension is summed in kc-sized
// chunks with one rounded add per chunk boundary, so a per-kernel kc would
// change results across tiers. mr/nr/mc/nc only reorder independent work and
// may vary freely.
//
// The small-product path under smallGEMMFLOPs (gemmDirect) is outside all of
// this: it is unfused on every machine and tier. There the assembly tiers of
// an AVX machine run SIMD kernels and everything else the scalar loops, with
// the same operations per element in the same order.
//
// So are the transcendentals (act.go): ExpInto, SigmoidInto and TanhInto are
// scalar loops over math.Exp and math.Tanh on generic and on every machine
// without FMA; the assembly tiers of a fused machine run AVX2+FMA kernels
// that repeat the standard library's own operation sequence in every lane —
// provided a start-up probe found them reproducing it bit for bit, else those
// tiers run the scalar loops too.
//
// What differs per tier, then, is speed and nothing else: on one machine
// every tier gives every result the same bits.

// gemmKernel describes one micro-kernel tier.
type gemmKernel struct {
	// name is the FEDMP_KERNEL selector ("generic", "sse", "avx2").
	name string
	// mr×nr is the register micro-tile; mc/nc are the A-panel row count and
	// B-panel column count of the blocked driver. mc must be a multiple of
	// mr so packed panels never overrun the pack buffer.
	mr, nr, mc, nc int
	// asm, when non-nil, computes one full mr×nr tile from packed panels.
	// Edge tiles are staged through it into a scratch tile (panels are
	// zero-padded, so the fringe is valid to compute and cheap to discard).
	asm func(c *float32, ldcBytes uintptr, ap, bp *float32, kb, acc uint64)
	// fused marks FMA accumulation semantics (must agree with cpuFused).
	fused bool
	// directChain and directDot, when non-nil, are the SIMD kernels of the
	// small-product path (gemmDirect); a tier without them runs the scalar
	// loops there. They are unfused on every machine and give the scalar
	// loops' results bit for bit, so which tier has them decides speed only.
	directChain, directDot directFunc
	// indirectB and indirectA, when non-nil, are asm with one operand read
	// in place from a padded convolution input (indirect.go): B's rows for
	// the forward product, A's for the weight gradient. They need nr = 16.
	// A tier without them lowers the convolution to a column matrix; same
	// bits either way.
	indirectB func(c *float32, ldcBytes uintptr, ap, x0, x1 *float32, taps *int, kb, acc uint64)
	indirectA func(tile, x *float32, taps, pos *int, bp *float32, kb uint64)
	// expInto, sigmoidInto and tanhInto, when non-nil, are the kernels of
	// ExpInto, SigmoidInto and TanhInto (act.go); a tier without them runs
	// the scalar loops over math.Exp and math.Tanh. A tier only has them
	// once they have reproduced those loops bit for bit at start-up.
	expInto               func(dst, src *float64, n uintptr) (done uintptr)
	sigmoidInto, tanhInto func(dst, src *float32, n uintptr)
}

// directFunc is the signature of a small-product kernel; see
// gemm_direct_amd64.s for the arguments.
type directFunc func(c, a, b *float32, m, k, n, aRow, aDepth, ldb, ldc uintptr, flags uint64)

// mrMax/nrMax bound every tier's micro-tile; the edge-tile scratch in
// gemmBlocked is sized by them.
const (
	mrMax = 8
	nrMax = 16
)

var (
	kernelTiers  []*gemmKernel
	activeKernel atomic.Pointer[gemmKernel]
)

func init() {
	generic := &gemmKernel{name: "generic", mr: mrGEMM, nr: nrGEMM, mc: mcGEMM, nc: ncGEMM, fused: cpuFused}
	kernelTiers = append([]*gemmKernel{generic}, archKernels()...)
	best := kernelTiers[len(kernelTiers)-1]
	// FEDMP_KERNEL forces a tier for tests and CI (make check runs the
	// tensor suite once per tier). Requests for a tier this machine does not
	// have fall back to the best available one, so the same command line
	// works on every host; tests that need the forced tier check KernelName.
	if name := os.Getenv("FEDMP_KERNEL"); name != "" {
		if k := findKernel(name); k != nil {
			best = k
		}
	}
	activeKernel.Store(best)
}

func findKernel(name string) *gemmKernel {
	for _, k := range kernelTiers {
		if k.name == name {
			return k
		}
	}
	return nil
}

// Kernels returns the micro-kernel tier names available on this machine, in
// ascending preference order (the last entry is the start-up default).
func Kernels() []string {
	names := make([]string, len(kernelTiers))
	for i, k := range kernelTiers {
		names[i] = k.name
	}
	return names
}

// KernelName returns the active micro-kernel tier.
func KernelName() string { return activeKernel.Load().name }

// KernelFused reports whether this machine's tiers use fused multiply-add
// accumulation (bench reports record it alongside the tier name).
func KernelFused() bool { return cpuFused }

// ForceKernel activates the named tier. It errors when the tier is not
// available on this machine. In-flight GEMM calls are unaffected — the
// driver snapshots the active kernel once per call — but the switch is meant
// for tests and benchmarks, not concurrent steady-state use.
func ForceKernel(name string) error {
	k := findKernel(name)
	if k == nil {
		return fmt.Errorf("tensor: kernel %q not available (have %v)", name, Kernels())
	}
	activeKernel.Store(k)
	return nil
}

// microTileFMA is the portable micro-kernel with fused semantics: the
// generic tier on FMA machines, where every accumulation step must round
// once, exactly as the hardware kernels do, for cross-tier bit-identity.
//
//fedmp:allocfree
func microTileFMA(c []float32, ldc int, ap, bp []float32, kb int, acc bool, mb, nb int) {
	var tile [mrGEMM][nrGEMM]float32
	ap = ap[: kb*mrGEMM : kb*mrGEMM]
	bp = bp[: kb*nrGEMM : kb*nrGEMM]
	for p := 0; p < kb; p++ {
		av := ap[p*mrGEMM : p*mrGEMM+mrGEMM : p*mrGEMM+mrGEMM]
		bv := bp[p*nrGEMM : p*nrGEMM+nrGEMM : p*nrGEMM+nrGEMM]
		for r := 0; r < mrGEMM; r++ {
			ar := av[r]
			for j := 0; j < nrGEMM; j++ {
				tile[r][j] = fmaf32(ar, bv[j], tile[r][j])
			}
		}
	}
	for i := 0; i < mb; i++ {
		row := c[i*ldc : i*ldc+nb]
		if acc {
			for j := 0; j < nb; j++ {
				row[j] += tile[i][j]
			}
		} else {
			for j := 0; j < nb; j++ {
				row[j] = tile[i][j]
			}
		}
	}
}

// mergeTile writes the valid mb×nb corner of a staged micro-tile (leading
// dimension tldc) into C. The staged kernel computes with acc=0; the single
// rounded add per element here matches the assembly accumulate path exactly.
//
//fedmp:allocfree
func mergeTile(c []float32, ldc int, tile []float32, tldc, mb, nb int, acc bool) {
	for i := 0; i < mb; i++ {
		row := c[i*ldc : i*ldc+nb]
		tr := tile[i*tldc : i*tldc+nb]
		if acc {
			for j, v := range tr {
				row[j] += v
			}
		} else {
			copy(row, tr)
		}
	}
}

// fmaf32 returns float32(a·b + c) rounded once, matching the hardware
// VFMADD231PS result for every input. The product of two float32 values is
// exact in float64 (24+24 ≤ 53 mantissa bits) and cannot underflow there, so
// the only error source is the float64 add; its residual is recovered with a
// TwoSum and folded in by rounding the sum to odd. A round-to-odd float64
// with ≥ 26 significant bits converts to float32 without double-rounding
// error (Boldo–Melquiond), so the final conversion is the single rounding.
//
//fedmp:allocfree
func fmaf32(a, b, c float32) float32 {
	p := float64(a) * float64(b)
	c64 := float64(c)
	s := p + c64
	// TwoSum: e is the exact residual (p + c64) − s, representable whenever
	// s is finite.
	pp := s - c64
	e := (p - pp) + (c64 - (s - pp))
	// Round s to odd toward the residual. The bit test ignores the sign of
	// a ±0 residual, and NaN/Inf sums skip the adjustment (Nextafter on an
	// Inf endpoint would fabricate MaxFloat64).
	if math.Float64bits(e)<<1 != 0 && !math.IsInf(s, 0) && !math.IsNaN(s) {
		if math.Float64bits(s)&1 == 0 {
			if e > 0 {
				s = math.Nextafter(s, math.Inf(1))
			} else {
				s = math.Nextafter(s, math.Inf(-1))
			}
		}
	}
	return float32(s)
}
