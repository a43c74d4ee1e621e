package tensor

import "math"

// Slice forms of the three transcendentals the networks use. Each has one
// definition, the scalar loop below it, written with the standard library's
// functions; a tier with a kernel for it (kernel.go) computes the same bits
// several elements at a time. dst and src must be equally long and either the
// same slice or disjoint.

// ExpInto sets dst[i] = math.Exp(src[i]).
//
//fedmp:allocfree
func ExpInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic("tensor: ExpInto length mismatch")
	}
	fn := activeKernel.Load().expInto
	if fn == nil {
		expScalar(dst, src)
		return
	}
	for len(src) > 0 {
		done := fn(&dst[0], &src[0], uintptr(len(src)))
		dst, src = dst[done:], src[done:]
		// The kernel stops at a vector holding an argument it does not
		// cover (NaN, ±Inf, a result outside the normal numbers).
		stop := min(len(src), expLanes)
		expScalar(dst[:stop], src[:stop])
		dst, src = dst[stop:], src[stop:]
	}
}

// expLanes is the vector width of the ExpInto kernels.
const expLanes = 4

//fedmp:allocfree
func expScalar(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Exp(v)
	}
}

// SigmoidInto sets dst[i] = 1/(1+exp(−src[i])), evaluated in float64 and
// rounded once.
//
//fedmp:allocfree
func SigmoidInto(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: SigmoidInto length mismatch")
	}
	if fn := activeKernel.Load().sigmoidInto; fn != nil && len(src) > 0 {
		fn(&dst[0], &src[0], uintptr(len(src)))
		return
	}
	sigmoidScalar(dst, src)
}

//fedmp:allocfree
func sigmoidScalar(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

// TanhInto sets dst[i] = tanh(src[i]), evaluated in float64 and rounded once.
//
//fedmp:allocfree
func TanhInto(dst, src []float32) {
	if len(dst) != len(src) {
		panic("tensor: TanhInto length mismatch")
	}
	if fn := activeKernel.Load().tanhInto; fn != nil && len(src) > 0 {
		fn(&dst[0], &src[0], uintptr(len(src)))
		return
	}
	tanhScalar(dst, src)
}

//fedmp:allocfree
func tanhScalar(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(math.Tanh(float64(v)))
	}
}
