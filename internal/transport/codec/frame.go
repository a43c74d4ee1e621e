package codec

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
)

// measure runs the counting walk over e and returns its payload size. A
// non-nil log records each tensor's plan for the storing walk to replay.
func measure(e *Envelope, log *planLog) (int, error) {
	if err := checkKind(e); err != nil {
		return 0, err
	}
	c := coder{dir: count, ver: version, quantize: e.Quantize, log: log}
	c.payload(e)
	if c.err != nil {
		return 0, c.err
	}
	if c.off > MaxFrame {
		return 0, fmt.Errorf("codec: %d-byte payload exceeds the %d-byte frame limit", c.off, MaxFrame)
	}
	return c.off, nil
}

// FrameBytes returns the exact wire size of e's frame — header plus payload
// — without encoding it: the walk WriteFrame stores with, run counting. It
// is the size model the simulation engine charges communication with, so the
// two runtimes charge identical traffic for identical messages. It records
// no plans: nothing replays them, and the simulator sizes every frame it
// charges.
func FrameBytes(e *Envelope) (int64, error) {
	n, err := measure(e, nil)
	if err != nil {
		return 0, err
	}
	return int64(HeaderLen + n), nil
}

// encoder is one encoding's scratch: the plan log, with room for every zoo
// model's plans inline, and WriteFrame's frame buffer, grown to the largest
// frame it has held. Encoders are pooled, so a steady-state encode allocates
// nothing.
type encoder struct {
	log    planLog
	inline [64]tensorPlan
	buf    []byte
}

var encoders = sync.Pool{New: func() any {
	enc := new(encoder)
	enc.log.plans = enc.inline[:0]
	return enc
}}

func (enc *encoder) release() {
	enc.log.plans, enc.log.next = enc.log.plans[:0], 0
	encoders.Put(enc)
}

// AppendFrame appends e's frame to dst, growing it only when its capacity
// falls short, and returns the extended slice: a caller that keeps the
// result for the next frame encodes in steady state without allocating. On
// an error dst is returned as it was.
func AppendFrame(dst []byte, e *Envelope) ([]byte, error) {
	enc := encoders.Get().(*encoder)
	defer enc.release()
	return enc.appendFrame(dst, e)
}

// WriteFrame encodes e into a pooled buffer, as AppendFrame does, and writes
// it to wr in a single Write, returning the number of bytes written.
func WriteFrame(wr io.Writer, e *Envelope) (int, error) {
	enc := encoders.Get().(*encoder)
	defer enc.release()
	b, err := enc.appendFrame(enc.buf[:0], e)
	if err != nil {
		return 0, err
	}
	enc.buf = b
	return wr.Write(b)
}

// appendFrame runs the counting walk, recording each tensor's plan, sizes
// dst for the frame, and runs the storing walk into it, replaying the plans.
// Ending anywhere but on the frame's last byte, or with plans left
// unreplayed, is an internal error, not a short or overrun frame.
func (enc *encoder) appendFrame(dst []byte, e *Envelope) ([]byte, error) {
	n, err := measure(e, &enc.log)
	if err != nil {
		return dst, err
	}
	b := slices.Grow(dst, HeaderLen+n)[:len(dst)+HeaderLen+n]
	f := b[len(dst):]
	f[0], f[1], f[2], f[3] = magic0, magic1, version, byte(e.Kind)
	binary.LittleEndian.PutUint32(f[4:], uint32(n))
	c := coder{dir: store, buf: f, off: HeaderLen, ver: version, quantize: e.Quantize, log: &enc.log}
	c.payload(e)
	if c.err != nil {
		return dst, c.err
	}
	if c.off != len(f) || enc.log.next != len(enc.log.plans) {
		return dst, fmt.Errorf("codec: internal error: encoded %d of a predicted %d-byte frame", c.off, len(f))
	}
	return b, nil
}

// parseHeader validates a frame header and returns the message kind,
// payload length and format version. The length is bounded here, by
// MaxFrame, before it sizes the payload buffer.
func parseHeader(hdr []byte) (Kind, int, byte, error) {
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, 0, 0, fmt.Errorf("codec: bad frame magic %#02x%02x", hdr[0], hdr[1])
	}
	if hdr[2] < minVersion || hdr[2] > version {
		return 0, 0, 0, fmt.Errorf("codec: unsupported format version %d", hdr[2])
	}
	kind := Kind(hdr[3])
	if kind < KindHello || kind > kindMax {
		return 0, 0, 0, fmt.Errorf("codec: unknown message kind %d", kind)
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > MaxFrame {
		return 0, 0, 0, fmt.Errorf("codec: %d-byte payload exceeds the %d-byte frame limit", n, MaxFrame)
	}
	return kind, int(n), hdr[2], nil
}

// ReadFrame reads and decodes one frame from rd, returning the envelope and
// the total bytes consumed. Any malformed input — bad magic, unknown kind,
// truncated or oversized payloads, corrupt tensor encodings — is reported as
// an error; ReadFrame never panics on wire data. It decodes through a
// Decoder of its own that it then drops, so nothing in the returned envelope
// is shared with any other frame and the caller may keep it. A receive loop
// that is done with each envelope before the next read — every TCP session,
// at both ends — holds on to a Decoder instead.
func ReadFrame(rd io.Reader) (*Envelope, int, error) {
	return (&Decoder{rd: rd}).ReadFrame()
}
