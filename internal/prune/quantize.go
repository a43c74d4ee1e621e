package prune

import (
	"fmt"
	"math"

	"fedmp/internal/tensor"
)

// Quantized is a residual model stored with 8-bit linear quantization.
// §III-C of the paper notes the PS can "quantize each parameter in residual
// models with fewer bits to further reduce the memory overhead"; this is
// that mechanism. Each tensor is quantized symmetrically with one float32
// scale (q = round(x/scale), x̂ = q·scale).
type Quantized struct {
	shapes [][]int
	scales []float32
	data   [][]int8
}

// nonFiniteMask is the float32 exponent field: all ones marks NaN and ±Inf.
const nonFiniteMask = 0x7f800000

// SymmetricScale returns the symmetric int8 quantization scale for vals —
// the largest finite magnitude divided by 127 — and whether every element
// is finite. Non-finite elements (NaN, ±Inf) are excluded from the scale so
// a single stray Inf cannot blow the scale up to Inf and silently zero the
// whole tensor; callers that need lossless treatment (the wire codec) use
// the finite flag to refuse quantization outright.
func SymmetricScale(vals []float32) (scale float32, finite bool) {
	finite = true
	var maxAbs float32
	for _, v := range vals {
		if math.Float32bits(v)&nonFiniteMask == nonFiniteMask {
			finite = false
			continue
		}
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs / 127, finite
}

// QuantizeElem quantizes one value against the inverse scale: round(v/scale)
// clamped to [-127, 127]. The clamp also pins down the non-finite inputs a
// hardened caller may feed through: ±Inf saturates to ±127 and NaN maps to
// zero, so the conversion to int8 is never fed an out-of-range float (whose
// result Go leaves implementation-defined). inv is float64 so it cannot
// overflow even for subnormal scales.
func QuantizeElem(v float32, inv float64) int8 {
	r := math.Round(float64(v) * inv)
	switch {
	case math.IsNaN(r):
		return 0
	case r > 127:
		return 127
	case r < -127:
		return -127
	}
	return int8(r)
}

// QuantizeResiduals quantizes a residual model to int8. Non-finite elements
// are tolerated, not propagated: the scale comes from the finite magnitudes
// only, infinities saturate to ±127 and NaNs quantize to zero (an all-zero
// or all-non-finite tensor gets scale 0 and zero codes).
func QuantizeResiduals(ws []*tensor.Tensor) *Quantized {
	q := &Quantized{
		shapes: make([][]int, len(ws)),
		scales: make([]float32, len(ws)),
		data:   make([][]int8, len(ws)),
	}
	for i, w := range ws {
		q.shapes[i] = append([]int(nil), w.Shape...)
		scale, _ := SymmetricScale(w.Data)
		q.scales[i] = scale
		d := make([]int8, len(w.Data))
		if scale > 0 {
			inv := 1 / float64(scale)
			for j, v := range w.Data {
				d[j] = QuantizeElem(v, inv)
			}
		}
		q.data[i] = d
	}
	return q
}

// Dequantize reconstructs the float32 residual model.
func (q *Quantized) Dequantize() []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(q.data))
	for i, d := range q.data {
		t := tensor.New(q.shapes[i]...)
		scale := q.scales[i]
		for j, v := range d {
			t.Data[j] = float32(v) * scale
		}
		out[i] = t
	}
	return out
}

// Bytes returns the quantized storage footprint (1 byte per element plus a
// 4-byte scale per tensor).
func (q *Quantized) Bytes() int64 {
	var n int64
	for _, d := range q.data {
		n += int64(len(d))
	}
	return n + int64(4*len(q.scales))
}

// MaxError returns the largest absolute reconstruction error against the
// original model (diagnostic; bounded by scale/2 per tensor).
func (q *Quantized) MaxError(orig []*tensor.Tensor) (float32, error) {
	if len(orig) != len(q.data) {
		return 0, fmt.Errorf("prune: MaxError against %d tensors, have %d", len(orig), len(q.data))
	}
	var worst float32
	for i, w := range orig {
		scale := q.scales[i]
		for j, v := range w.Data {
			r := float32(q.data[i][j]) * scale
			d := v - r
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}
