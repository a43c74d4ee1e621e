//go:build amd64

package tensor

// The kernels of ExpInto, SigmoidInto and TanhInto (contract in act_amd64.s).

//go:noescape
func expIntoFMA(dst, src *float64, n uintptr) (done uintptr)

//go:noescape
func sigmoidIntoFMA(dst, src *float32, n uintptr)

//go:noescape
func tanhIntoFMA(dst, src *float32, n uintptr)

// actKernelsMatchStdlib runs the three kernels over a fixed vector and
// reports whether every result has the bits of the scalar loops. CPUID
// cannot say so: the kernels repeat what math.Exp and math.Tanh do on this
// toolchain with FMA in use, and a run with GODEBUG=cpu.fma=off, or a
// toolchain that evaluates either another way, differs in the last place of
// some float64 results (32 of the 383 below with FMA off). Only call it on a
// cpuFused machine.
func actKernelsMatchStdlib() bool {
	// 8 arguments per unit across [−24, 24): every branch of math.tanh, both
	// signs; not a multiple of the vector width, so the masked tail runs too.
	const n = 383
	var x32, got32, want32 [n]float32
	var x64, got64, want64 [n]float64
	for i := range x32 {
		x64[i] = float64(i-n/2)/8 + 1/32.0
		x32[i] = float32(x64[i])
	}
	// No result is a NaN or a zero, so == on the arrays is equality of bits.
	if expIntoFMA(&got64[0], &x64[0], n) != n {
		return false
	}
	expScalar(want64[:], x64[:])
	sigmoidIntoFMA(&got32[0], &x32[0], n)
	sigmoidScalar(want32[:], x32[:])
	if got64 != want64 || got32 != want32 {
		return false
	}
	tanhIntoFMA(&got32[0], &x32[0], n)
	tanhScalar(want32[:], x32[:])
	return got32 == want32
}
