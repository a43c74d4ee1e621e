package codec

import (
	"encoding/binary"
	"fmt"
	"io"
)

// measure runs the counting walk over e and returns its payload size.
func measure(e *Envelope) (int, error) {
	if err := checkKind(e); err != nil {
		return 0, err
	}
	c := coder{dir: count, ver: version, quantize: e.Quantize}
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
// two runtimes charge identical traffic for identical messages.
func FrameBytes(e *Envelope) (int64, error) {
	n, err := measure(e)
	if err != nil {
		return 0, err
	}
	return int64(HeaderLen + n), nil
}

// WriteFrame encodes e into a pooled buffer of exactly FrameBytes(e) bytes
// and writes it to wr in a single Write, returning the number of bytes
// written. The walk that sized the buffer fills it; ending anywhere but on
// its last byte is an internal error, not a short or overrun frame.
func WriteFrame(wr io.Writer, e *Envelope) (int, error) {
	n, err := measure(e)
	if err != nil {
		return 0, err
	}
	f := getBuf(HeaderLen + n)
	defer putBuf(f)
	f.b[0], f.b[1], f.b[2], f.b[3] = magic0, magic1, version, byte(e.Kind)
	binary.LittleEndian.PutUint32(f.b[4:], uint32(n))
	c := coder{dir: store, buf: f.b, off: HeaderLen, ver: version, quantize: e.Quantize}
	c.payload(e)
	if c.err != nil {
		return 0, c.err
	}
	if c.off != len(f.b) {
		return 0, fmt.Errorf("codec: internal error: encoded %d of a predicted %d-byte frame", c.off, len(f.b))
	}
	return wr.Write(f.b)
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
// is shared with any other frame and the caller may keep it; a receive loop
// that fully consumes each envelope before the next read should hold on to a
// Decoder instead.
func ReadFrame(rd io.Reader) (*Envelope, int, error) {
	return (&Decoder{rd: rd}).ReadFrame()
}
