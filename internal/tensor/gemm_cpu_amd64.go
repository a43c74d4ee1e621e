//go:build amd64

package tensor

// Runtime CPU feature probe for the kernel registry. Stdlib-only: two
// instruction wrappers in gemm_cpu_amd64.s and the leaf/bit walk below —
// internal/cpu is not importable and x/sys/cpu would be a new dependency.

// cpuid executes CPUID for the given leaf/subleaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (extended control register 0); only valid when CPUID
// reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// cpuAVX reports whether AVX instructions may run: the CPU has them and the
// OS saves and restores YMM state. The small-product kernels need no more.
var cpuAVX = detectAVX()

// cpuFused reports whether this machine runs the fused (FMA) kernel group:
// FMA + AVX2 present and the OS saves/restores YMM state.
var cpuFused = cpuAVX && detectFMA()

func detectAVX() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		bitOSXSAVE = 1 << 27
		bitAVX     = 1 << 28
	)
	if ecx1&bitOSXSAVE == 0 || ecx1&bitAVX == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be set: the OS context-
	// switches the full YMM registers.
	xlo, _ := xgetbv()
	return xlo&6 == 6
}

func detectFMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const bitFMA = 1 << 12
	if ecx1&bitFMA == 0 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const bitAVX2 = 1 << 5
	return ebx7&bitAVX2 != 0
}
