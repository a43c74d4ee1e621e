package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// direction is what a coder's walk over a payload does with each field.
type direction byte

const (
	count direction = iota // add up the encoded size; no buffer
	store                  // write the fields into buf
	load                   // read the fields out of buf
)

// coder walks one frame payload. The layout functions (layout.go) name each
// field of each message exactly once, as a call to one of the primitives
// below; the direction decides whether that call counts the field's bytes,
// stores it or loads it. The size model, the encoder and the decoder are
// therefore one description of the format, and cannot disagree on it.
//
// Errors are sticky: the first one is kept in err, later primitives become
// no-ops (loads yield zero values, lengths yield zero), and the frame
// functions look at err once, after the walk.
type coder struct {
	dir direction
	buf []byte
	off int
	err error
	// ver is the frame's format version: a loaded version-1 payload lacks
	// the fields version 2 added.
	ver byte
	// quantize is Envelope.Quantize, the encoder's licence to pick the int8
	// tensor modes.
	quantize bool
	// d owns the objects a load fills in; nil in the other directions.
	d *Decoder
	// log records the tensor plans of an encoding's counting walk and feeds
	// them to its storing walk; nil on load and in FrameBytes.
	log *planLog
}

func (c *coder) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("codec: "+format, args...)
	}
}

func (c *coder) rem() int { return len(c.buf) - c.off }

// take advances over the next n bytes and returns them — to be filled on
// store, read on load (aliasing the pooled frame buffer: copy what is kept).
// It returns nil without moving when counting, after an error, or — its own
// bounds check — when fewer than n bytes are left, which is an error.
func (c *coder) take(n int) []byte {
	if c.dir == count {
		c.off += n
		return nil
	}
	if c.err != nil {
		return nil
	}
	if n < 0 || n > c.rem() {
		c.err = errTruncated
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

func (c *coder) byte(v *byte) {
	if b := c.take(1); b != nil {
		if c.dir == load {
			*v = b[0]
		} else {
			b[0] = *v
		}
	}
}

// flag is a bool as one byte, 0 or 1; any other value is malformed.
func (c *coder) flag(v *bool, what string) {
	var b byte
	if *v {
		b = 1
	}
	c.byte(&b)
	if c.dir == load {
		if b > 1 {
			c.fail("unknown %s flag %d", what, b)
		}
		*v = b == 1
	}
}

// uvarint is an unsigned varint. Only length calls it: a loaded value is an
// arbitrary 64-bit number until the gate has bounded it.
func (c *coder) uvarint(v *uint64) {
	switch {
	case c.dir == count:
		c.off += uvarintLen(*v)
	case c.err != nil:
	case c.dir == store:
		c.off += binary.PutUvarint(c.buf[c.off:], *v)
	default:
		u, n := binary.Uvarint(c.buf[c.off:])
		if n <= 0 {
			c.fail("malformed varint")
			return
		}
		*v, c.off = u, c.off+n
	}
}

// int is a signed zig-zag varint.
func (c *coder) int(v *int) {
	switch {
	case c.dir == count:
		c.off += svarintLen(int64(*v))
	case c.err != nil:
	case c.dir == store:
		c.off += binary.PutVarint(c.buf[c.off:], int64(*v))
	default:
		s, n := binary.Varint(c.buf[c.off:])
		switch {
		case n <= 0:
			c.fail("malformed varint")
		case int64(int(s)) != s:
			c.fail("varint %d overflows int", s)
		default:
			*v, c.off = int(s), c.off+n
		}
	}
}

func (c *coder) f32(v *float32) {
	if b := c.take(4); b != nil {
		if c.dir == load {
			*v = math.Float32frombits(binary.LittleEndian.Uint32(b))
		} else {
			binary.LittleEndian.PutUint32(b, math.Float32bits(*v))
		}
	}
}

func (c *coder) f64(v *float64) {
	if b := c.take(8); b != nil {
		if c.dir == load {
			*v = math.Float64frombits(binary.LittleEndian.Uint64(b))
		} else {
			binary.LittleEndian.PutUint64(b, math.Float64bits(*v))
		}
	}
}

// str is a length-prefixed string; loaded strings are interned by the
// Decoder.
func (c *coder) str(v *string) {
	n := len(*v)
	b := c.take(c.length(&n, MaxFrame, 1, "string byte"))
	if c.dir == load {
		*v = c.d.intern(b) // "" for no bytes: a recycled destination holds an old string
	} else {
		copy(b, *v)
	}
}

// length is the codec's one gate: every count that crosses the wire — list
// lengths, string bytes, a tensor's rank, each dimension, a sparse tensor's
// nonzero count — goes through it, and nowhere else does a wire-derived
// integer become an int. A count must lie in [0, limit] in every direction, so
// the encoder cannot emit what the decoder refuses; a loaded count must also
// fit the bytes actually left in the frame at per bytes an entry (0 for a
// count that sizes nothing by itself), so a hostile length is rejected before
// anything is allocated from it. It returns the count, 0 after an error.
func (c *coder) length(n *int, limit, per int, what string) int {
	u := uint64(*n)
	if c.dir != load {
		if *n < 0 || *n > limit {
			c.fail("%s count %d outside [0, %d]", what, *n, limit)
			return 0
		}
		c.uvarint(&u)
		return *n
	}
	c.uvarint(&u)
	if c.err != nil {
		return 0
	}
	// limit and per are small constants (≤ MaxFrame and ≤ 17): no overflow.
	if u > uint64(limit) || u*uint64(per) > uint64(c.rem()) {
		c.fail("implausible %s count %d with %d bytes left (limit %d)", what, u, c.rem(), limit)
		return 0
	}
	*n = int(u)
	return *n
}

// list moves a list's length through the gate and, on load, points *s at
// that many elements for the caller's loop to fill: from recycled when the
// Decoder keeps such lists between frames, else by resizing *s in place —
// which leaves an empty list in a fresh destination nil, the canonical form.
// After an error it returns nothing, in every direction, so no loop runs on.
func list[T any](c *coder, s *[]T, limit, per int, what string, recycled func(*Decoder, int) []T) []T {
	n := len(*s)
	n = c.length(&n, limit, per, what)
	if c.dir == load {
		if recycled != nil {
			*s = recycled(c.d, n)
		} else {
			*s = resize(*s, n)
		}
	}
	if c.err != nil {
		return nil
	}
	return *s
}

// resize returns s resliced to length n, reallocating only when its capacity
// is too small. Contents are unspecified: callers overwrite every element or
// clear first.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// uvarintLen returns the encoded size of v as a binary.PutUvarint varint:
// seven bits a byte, at least one byte.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// svarintLen returns the encoded size of v as a zig-zag binary.PutVarint
// varint.
func svarintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }
