// Package tensor provides dense float32 n-dimensional arrays and the small
// set of linear-algebra kernels the training engine needs: element-wise
// arithmetic, blocked matrix multiplication, im2col/col2im for convolution,
// reductions and random initialisation.
//
// Tensors are row-major. The package is deliberately minimal — it is a
// substrate for the federated-learning experiments in this repository, not a
// general array library — but every exported operation validates its shape
// arguments and panics with a descriptive message on misuse, since shape bugs
// in a hand-rolled training engine are otherwise very hard to localise.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major float32 array of arbitrary rank.
//
// The zero value is not usable; construct tensors with New, FromSlice
// or the random constructors in random.go. Data is exposed so that hot loops
// (layer kernels, optimisers) can operate on the raw slice.
type Tensor struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data holds the elements in row-major order; len(Data) == Prod(Shape).
	Data []float32
}

// Prod returns the product of dims, treating the empty slice as 1 (the size
// of a scalar).
func Prod(dims []int) int {
	p := 1
	for _, d := range dims {
		p *= d
	}
	return p
}

// New returns a zero-filled tensor with the given shape.
//
// The shape argument is copied immediately and never retained or passed on,
// so escape analysis can keep callers' variadic shape literals on the stack —
// hot loops that probe buffer caches (see nn's ensure helper) rely on this to
// stay allocation-free on the cache-hit path.
func New(shape ...int) *Tensor {
	s := append([]int(nil), shape...)
	for _, d := range s {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", s))
		}
	}
	return &Tensor{Shape: s, Data: make([]float32, Prod(s))}
}

// Full returns a tensor with the given shape where every element is v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); the caller must not alias it unexpectedly.
func FromSlice(data []float32, shape ...int) *Tensor {
	s := append([]int(nil), shape...)
	if len(data) != Prod(s) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (size %d)",
			len(data), s, Prod(s)))
	}
	return &Tensor{Shape: s, Data: data}
}

// Ensure is EnsureCap with no minimum capacity: a buffer that is handed back
// to it every time grows to its largest shape and then never allocates again.
func Ensure(t *Tensor, shape ...int) *Tensor { return EnsureCap(t, 0, shape...) }

// EnsureCap returns t re-dimensioned to shape when its backing array is large
// enough, and otherwise (also when t is nil) a fresh tensor whose backing
// array holds at least capacity elements, so a buffer whose largest shape is
// known up front is allocated once. Contents are unspecified after a
// re-dimension; callers overwrite or zero them. Like New, it never retains
// shape.
func EnsureCap(t *Tensor, capacity int, shape ...int) *Tensor {
	size := Prod(shape)
	if t == nil || cap(t.Data) < size {
		t = &Tensor{Data: make([]float32, 0, max(size, capacity))}
	}
	t.Data = t.Data[:size]
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float32, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must have equal sizes.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.Shape, src.Shape))
	}
	copy(t.Data, src.Data)
}

// Reshape returns a view of t with a new shape of the same total size. The
// returned tensor shares Data with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	s := append([]int(nil), shape...)
	if Prod(s) != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (size %d) to %v (size %d)",
			t.Shape, len(t.Data), s, Prod(s)))
	}
	return &Tensor{Shape: s, Data: t.Data}
}

// Zero sets every element of t to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given multi-index. Intended for tests and
// small accesses, not hot loops.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// String renders a short description, e.g. "Tensor[2 3]". Element values are
// deliberately omitted; use Data for debugging.
func (t *Tensor) String() string { return fmt.Sprintf("Tensor%v", t.Shape) }

// IsFinite reports whether every element is neither NaN nor infinite. The
// training engine uses it in tests and assertions to catch divergence early.
func (t *Tensor) IsFinite() bool {
	for _, v := range t.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}
