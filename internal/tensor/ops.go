package tensor

import (
	"fmt"
	"math"
)

// checkSame panics unless a and b have the same number of elements. Shape
// equality is deliberately not required: element-wise kernels are frequently
// applied across reshaped views of the same buffer.
func checkSame(op string, a, b *Tensor) {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: %s size mismatch: %v vs %v", op, a.Shape, b.Shape))
	}
}

// Add computes t += other element-wise.
func (t *Tensor) Add(other *Tensor) {
	checkSame("Add", t, other)
	AddTo(t.Data, other.Data)
}

// Sub computes t -= other element-wise.
func (t *Tensor) Sub(other *Tensor) {
	checkSame("Sub", t, other)
	SubInto(t.Data, t.Data, other.Data)
}

// Mul computes t *= other element-wise (Hadamard product).
func (t *Tensor) Mul(other *Tensor) {
	checkSame("Mul", t, other)
	for i, v := range other.Data {
		t.Data[i] *= v
	}
}

// Scale computes t *= s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AddScaled computes t += s*other (axpy).
func (t *Tensor) AddScaled(s float32, other *Tensor) {
	checkSame("AddScaled", t, other)
	for i, v := range other.Data {
		t.Data[i] += s * v
	}
}

// AddScalar computes t += s element-wise.
func (t *Tensor) AddScalar(s float32) {
	for i := range t.Data {
		t.Data[i] += s
	}
}

// Sum returns the sum of all elements, accumulated in float64 to limit
// rounding drift on large tensors.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// AbsSum returns the l1-norm of the whole tensor. Structured pruning uses
// row/column slices of Data with AbsSumSlice; this whole-tensor variant is
// used for layer-level statistics.
func (t *Tensor) AbsSum() float64 {
	return AbsSumSlice(t.Data)
}

// AbsSumSlice returns the sum of absolute values of xs, added in order into
// a float64. |v| clears the sign bit instead of branching on it: on
// random-sign weights a sign branch mispredicts about every other element.
func AbsSumSlice(xs []float32) float64 {
	var s float64
	for _, v := range xs {
		s += math.Abs(float64(v))
	}
	return s
}

// AbsSumRows sets dst[i] to AbsSumSlice of row i of xs, whose rows are the
// len(dst) consecutive runs of width elements — a layer's per-filter l1
// scores. Four rows are summed at once, interleaved, so four addition chains
// run side by side; each row still adds its own elements in order into its
// own float64, so every sum has AbsSumSlice's bits. The last len(dst)%4 rows
// are summed one by one.
func AbsSumRows(dst []float64, xs []float32, width int) {
	xs = xs[:len(dst)*width]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		r0 := xs[i*width : (i+1)*width]
		r1 := xs[(i+1)*width : (i+2)*width][:len(r0)]
		r2 := xs[(i+2)*width : (i+3)*width][:len(r0)]
		r3 := xs[(i+3)*width : (i+4)*width][:len(r0)]
		var s0, s1, s2, s3 float64
		for j, v := range r0 {
			s0 += math.Abs(float64(v))
			s1 += math.Abs(float64(r1[j]))
			s2 += math.Abs(float64(r2[j]))
			s3 += math.Abs(float64(r3[j]))
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < len(dst); i++ {
		dst[i] = AbsSumSlice(xs[i*width : (i+1)*width])
	}
}

// NonzeroCount returns the number of elements of xs whose bit pattern is not
// the all-zero word: negative zero and every NaN count, and no float
// comparison is made. Tiers with a counting kernel run it over the whole
// blocks of eight; the rest is this loop.
func NonzeroCount(xs []float32) int {
	n := 0
	if kern := activeKernel.Load().nonzeroCount; kern != nil && len(xs) >= 8 {
		blocks := len(xs) &^ 7
		n = int(kern(&xs[0], uintptr(blocks)))
		xs = xs[blocks:]
	}
	for _, v := range xs {
		if math.Float32bits(v) != 0 {
			n++
		}
	}
	return n
}

// SqNorm returns the squared l2-norm of the whole tensor.
func (t *Tensor) SqNorm() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return s
}

// Norm returns the l2-norm of the whole tensor.
func (t *Tensor) Norm() float64 { return math.Sqrt(t.SqNorm()) }

// Dot returns the inner product of a and b viewed as flat vectors.
func Dot(a, b *Tensor) float64 {
	checkSame("Dot", a, b)
	var s float64
	for i, v := range a.Data {
		s += float64(v) * float64(b.Data[i])
	}
	return s
}

// MaxAbs returns the largest absolute element value, or 0 for empty tensors.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		if v = float32(math.Abs(float64(v))); v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index of the maximum element of xs, scanning from xs[0]
// with a strict >: ties resolve to the first maximal index, and a NaN wins
// only at index 0. Panics on an empty slice. The kernel takes the whole
// vectors of a slice that does not start with a NaN.
func ArgMax(xs []float32) int {
	if len(xs) == 0 {
		panic("tensor: ArgMax of empty slice")
	}
	best, bi, from := xs[0], 0, 1
	if fn := activeKernel.Load().argMax; fn != nil && len(xs) >= 8 && !math.IsNaN(float64(best)) {
		from = len(xs) &^ 7
		bi = int(fn(&xs[0], uintptr(from)))
		best = xs[bi]
	}
	for i := from; i < len(xs); i++ {
		if xs[i] > best {
			best, bi = xs[i], i
		}
	}
	return bi
}

// Clip bounds every element of t into [-limit, limit]. Used for gradient
// clipping in the recurrent models, where exploding gradients are otherwise
// routine.
func (t *Tensor) Clip(limit float32) {
	if limit <= 0 {
		panic("tensor: Clip limit must be positive")
	}
	xs := t.Data
	if fn := activeKernel.Load().clip; fn != nil && len(xs) >= 8 {
		whole := len(xs) &^ 7
		fn(&xs[0], uintptr(whole), -limit, limit)
		xs = xs[whole:]
	}
	clipScalar(xs, limit)
}

// clipScalar is Clip's loop; a NaN stays as it is.
func clipScalar(xs []float32, limit float32) {
	for i, v := range xs {
		if v > limit {
			xs[i] = limit
		} else if v < -limit {
			xs[i] = -limit
		}
	}
}

// Equal reports whether a and b have the same shape and identical elements
// in the raw-bit sense: the identity predicate for copy/recover round-trips.
// Unlike float comparison, a NaN equals an identically encoded NaN and +0
// differs from −0 — exactly what "these bytes were preserved" means. Use
// AllClose for value comparisons of computed results.
func Equal(a, b *Tensor) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// AllClose reports whether a and b have the same shape and all elements are
// within tol of each other.
func AllClose(a, b *Tensor, tol float32) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}
