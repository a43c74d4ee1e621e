package codec

import (
	"encoding/binary"
	"math"

	"fedmp/internal/prune"
	"fedmp/internal/tensor"
)

// Tensor payload modes. The int8 modes (format version 2) are lossy: the
// decoder reconstructs code·scale, so they are only ever chosen when the
// envelope opted in via Envelope.Quantize.
const (
	modeDense        byte = 0 // raw little-endian float32 slab
	modeSparse       byte = 1 // nonzero count, presence bitmask, surviving values
	modeQuant8       byte = 2 // float32 scale, one int8 code per element
	modeQuantSparse8 byte = 3 // code count, scale, presence bitmask, nonzero codes
)

// nonzeroCount counts the elements of vals whose bit pattern is not the
// all-zero word. Comparing bit patterns instead of values keeps the sparse
// mode bit-exact: negative zero and NaN payloads survive a round trip, and
// no float comparison is involved.
//
//fedmp:allocfree
func nonzeroCount(vals []float32) int {
	n := 0
	for _, v := range vals {
		if math.Float32bits(v) != 0 {
			n++
		}
	}
	return n
}

// quantNonzeroCount counts the elements whose quantized code is nonzero —
// the population the quantized-sparse mask marks. It must agree element for
// element with the codes the encoder emits, so both call prune.QuantizeElem.
//
//fedmp:allocfree
func quantNonzeroCount(vals []float32, inv float64) int {
	n := 0
	for _, v := range vals {
		if prune.QuantizeElem(v, inv) != 0 {
			n++
		}
	}
	return n
}

// tensorPlan is the encoder's per-tensor decision: the mode, the sparse-mode
// element count, the quantization scale, and the payload size after the mode
// byte. The counting walk and the storing walk both ask planTensor, so
// FrameBytes stays byte-exact against WriteFrame with four modes in play; a
// loading walk fills the same fields from the wire.
type tensorPlan struct {
	mode  byte
	nnz   int
	scale float32
	size  int
}

// planTensor picks the cheapest encoding for n elements. The float32 modes
// are always candidates; the lossy int8 modes join only when the envelope
// asked for quantization and the tensor is quantizable — every element
// finite and the symmetric scale nonzero — and win only when strictly
// cheaper, so a tie keeps full precision.
func planTensor(data []float32, n int, quantize bool) tensorPlan {
	p := tensorPlan{mode: modeDense, size: 4 * n}
	nnz := nonzeroCount(data)
	if s := uvarintLen(uint64(nnz)) + (n+7)/8 + 4*nnz; s < p.size {
		p = tensorPlan{mode: modeSparse, nnz: nnz, size: s}
	}
	if !quantize {
		return p
	}
	scale, finite := prune.SymmetricScale(data)
	if !finite || scale == 0 {
		return p
	}
	if s := 4 + n; s < p.size {
		p = tensorPlan{mode: modeQuant8, scale: scale, size: s}
	}
	qnnz := quantNonzeroCount(data, 1/float64(scale))
	if s := uvarintLen(uint64(qnnz)) + 4 + (n+7)/8 + qnnz; s < p.size {
		p = tensorPlan{mode: modeQuantSparse8, nnz: qnnz, scale: scale, size: s}
	}
	return p
}

// tensors is a tensor list; every tensor costs at least two bytes.
func (c *coder) tensors(ts *[]*tensor.Tensor, quantize bool) {
	for i := range list(c, ts, maxTensors, 2, "tensor", (*Decoder).tensorList) {
		c.tensor(&(*ts)[i], quantize)
	}
}

// tensor is one tensor: rank, dimensions, mode byte, then the mode's payload.
// Rank, each dimension and their bounded product are checked in every
// direction; that the shape matches the data is the encoder's to check, and
// the loader sizes the data from the shape only once the payload's bytes are
// known to be there.
func (c *coder) tensor(tp **tensor.Tensor, quantize bool) {
	if *tp == nil {
		if c.dir != load {
			c.fail("nil tensor in payload")
			return
		}
		*tp = &tensor.Tensor{}
	}
	t := *tp
	n64 := int64(1) // bounded multiplies: ≤ maxElems² ≪ 2⁶³ even on 32-bit ints
	for i := range list(c, &t.Shape, maxRank, 1, "tensor rank", nil) {
		n64 *= int64(c.length(&t.Shape[i], maxElems, 0, "dimension"))
		if n64 > maxElems {
			c.fail("tensor with over %d elements", maxElems)
			return
		}
	}
	n := int(n64)
	var p tensorPlan
	if c.dir != load {
		if n != len(t.Data) {
			c.fail("tensor shape %v does not match %d data elements", t.Shape, len(t.Data))
			return
		}
		p = planTensor(t.Data, n, quantize)
	}
	c.byte(&p.mode)
	if c.dir == count {
		c.off += p.size
		return
	}
	switch p.mode {
	case modeDense:
		c.dense(t, n)
	case modeSparse:
		c.sparse(t, n, &p, 4)
	case modeQuant8:
		c.quant8(t, n, &p)
	case modeQuantSparse8:
		c.sparse(t, n, &p, 1)
	default:
		c.fail("unknown tensor mode %d", p.mode)
	}
}

// The payload functions below run on store and on load only. Each moves its
// header fields through the shared primitives, takes the payload's bytes —
// the bounds check that must precede sizing t.Data on load — and then runs
// the one loop that differs by direction.

func (c *coder) dense(t *tensor.Tensor, n int) {
	b := c.take(4 * n)
	switch {
	case c.err != nil:
	case c.dir == store:
		putF32s(b, t.Data)
	default:
		t.Data = resize(t.Data, n)
		getF32s(t.Data, b)
	}
}

// scale is an int8 mode's scale. A loaded one must be finite and positive
// (the encoder never quantizes otherwise), so a hostile scale cannot smuggle
// NaN/Inf into every reconstructed element.
func (c *coder) scale(p *tensorPlan) {
	c.f32(&p.scale)
	if s := float64(p.scale); c.dir == load && (math.IsNaN(s) || math.IsInf(s, 0) || s <= 0) {
		c.fail("invalid quantization scale %v", p.scale)
	}
}

func (c *coder) quant8(t *tensor.Tensor, n int, p *tensorPlan) {
	c.scale(p)
	b := c.take(n)
	switch {
	case c.err != nil:
	case c.dir == store:
		inv := 1 / float64(p.scale)
		for i, v := range t.Data {
			b[i] = byte(prune.QuantizeElem(v, inv))
		}
	default:
		t.Data = resize(t.Data, n)
		for i := range t.Data {
			t.Data[i] = float32(int8(b[i])) * p.scale
		}
	}
}

// sparse is both sparse modes: the nonzero count (at most n, and width bytes
// each must be present), for the int8 mode the scale, a presence bit per
// element and the surviving values — float32 words at width 4, int8 codes at
// width 1. A loaded mask may set no bit past the last element and exactly as
// many bits as the count announces.
func (c *coder) sparse(t *tensor.Tensor, n int, p *tensorPlan, width int) {
	nnz := c.length(&p.nnz, n, width, "nonzero")
	if width == 1 {
		c.scale(p)
	}
	mask := c.take((n + 7) / 8)
	vals := c.take(width * nnz)
	switch {
	case c.err != nil:
	case c.dir == load:
		if n%8 != 0 && mask[len(mask)-1]>>(n%8) != 0 {
			c.fail("sparse mask has bits set past the last element")
			return
		}
		t.Data = resize(t.Data, n)
		clear(t.Data)
		vi := 0
		for i := range t.Data {
			if mask[i>>3]&(1<<(i&7)) == 0 {
				continue
			}
			if vi >= nnz {
				c.fail("sparse mask has more than %d set bits", nnz)
				return
			}
			if width == 4 {
				t.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(vals[4*vi:]))
			} else {
				t.Data[i] = float32(int8(vals[vi])) * p.scale
			}
			vi++
		}
		if vi != nnz {
			c.fail("sparse mask has %d set bits, header says %d", vi, nnz)
		}
	case width == 4:
		clear(mask)
		for i, v := range t.Data {
			if bits := math.Float32bits(v); bits != 0 {
				mask[i>>3] |= 1 << (i & 7)
				binary.LittleEndian.PutUint32(vals, bits)
				vals = vals[4:]
			}
		}
	default:
		clear(mask)
		inv := 1 / float64(p.scale)
		for i, v := range t.Data {
			if q := prune.QuantizeElem(v, inv); q != 0 {
				mask[i>>3] |= 1 << (i & 7)
				vals[0] = byte(q)
				vals = vals[1:]
			}
		}
	}
}
