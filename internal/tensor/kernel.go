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
// So are the train step's element-wise passes (elementwise.go): ReLU and its
// gradient, the 2×2 max-pool and its gradient, the bias add, the
// bias-gradient sums and the SGD update, and the language model's LSTM cell,
// hidden state and gate gradients, dense bias sums, gradient clip and softmax
// passes, are Go loops on generic and sse; the avx2 tier runs kernels that
// repeat each loop's operations per lane, unfused and in its order.
//
// So is packTransposed (gemm.go), which fills every panel of an operand
// stored along its depth — the conv weight gradient's dy_iᵀ and its dWᵀ
// copies among them: a Go loop on generic and sse, an 8×8 register transpose
// per whole block on avx2. It is a copy, so the same bits land either way.
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
	// the forward product and the input gradient's, A's for the weight
	// gradient, which accumulates transposed; addRuns adds the input
	// gradient's column rows into its padded copy. They need nr = 16. A tier
	// without them lowers the convolution to a column matrix; same bits
	// either way.
	indirectB func(c *float32, ldcBytes uintptr, ap, x0, x1 *float32, taps *int, kb, acc uint64)
	indirectA func(c *float32, ldcBytes uintptr, x *float32, taps, pos *int, bp *float32, kb, acc uint64)
	addRuns   func(dst, src *float32, pos *int, runs uint64)
	// nonzeroCount, when non-nil, counts the words of xs[0:n] (n a multiple
	// of eight) that are not all-zero bits — NonzeroCount's whole blocks; a
	// tier without it runs the Go loop over every element. Same count either
	// way.
	nonzeroCount func(xs *float32, n uintptr) uintptr
	// transpose8x8, when non-nil, moves blocks of eight depths of eight runs
	// into eight columns of a panel — packTransposed's whole blocks; a tier
	// without it runs the Go loop over every depth. A copy either way.
	transpose8x8 func(dst *float32, ldBytes uintptr, r0, r1, r2, r3, r4, r5, r6, r7 *float32, blocks uintptr)
	// expInto, sigmoidInto and tanhInto, when non-nil, are the kernels of
	// ExpInto, SigmoidInto and TanhInto (act.go); a tier without them runs
	// the scalar loops over math.Exp and math.Tanh. A tier only has them
	// once they have reproduced those loops bit for bit at start-up.
	expInto               func(dst, src *float64, n uintptr) (done uintptr)
	sigmoidInto, tanhInto func(dst, src *float32, n uintptr)
	// relu … sgdStep, when non-nil, are the kernels of the train step's
	// element-wise passes (elementwise.go), over whole vectors of eight
	// elements, pool windows or bias planes; the callers run the Go loops
	// over the rest, and over everything on a tier without them. Same bits
	// either way.
	relu           func(dst, src *float32, n uintptr)
	reluGrad       func(dx, dy, y *float32, n uintptr)
	maxPool2x2     func(out *float32, arg *int32, in *float32, rows, outW uintptr)
	maxPool2x2Grad func(dx, dy *float32, arg *int32, rows, outW uintptr)
	addBias        func(y, bias *float32, c, area uintptr)
	addBiasGrad    func(db, dy *float32, c, area uintptr)
	sgdStep        func(w, grad, v *float32, n uintptr, lr, mom, wd float32)
	// addTo … divNarrowScale are the same for the language model's passes
	// and the server's sums (elementwise.go, and ArgMax and Clip in ops.go):
	// whole vectors of eight elements, or eight columns of every row for
	// addRowSums; argMax returns the first index of the maximum of a slice
	// that does not start with a NaN.
	addTo          func(dst, src *float32, n uintptr)
	subInto        func(dst, a, b *float32, n uintptr)
	addRowSums     func(dst, rows *float32, cols, width, nrows uintptr)
	lstmCell       func(c, f, cPrev, i, g *float32, n uintptr)
	lstmHidden     func(h, out, o, tc *float32, n uintptr)
	lstmGateGrads  func(dz, db, gates, dout, dhNext, dcNext, tanhC, cPrev, dcPrev *float32, h, n uintptr)
	clip           func(xs *float32, n uintptr, lo, hi float32)
	argMax         func(xs *float32, n uintptr) uintptr
	subWiden       func(dst *float64, src *float32, n uintptr, s float32)
	divNarrowScale func(dst *float32, src *float64, n uintptr, d float64, s float32)
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
