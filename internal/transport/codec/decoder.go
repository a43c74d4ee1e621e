package codec

import (
	"io"

	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// maxInternStrings bounds the Decoder's string-intern table so a peer
// sending ever-changing names cannot grow it without limit; past the cap,
// new strings are simply allocated per frame.
const maxInternStrings = 1024

// Decoder reads frames from one stream, recycling a single envelope's worth
// of decode state across calls: the envelope and payload structs, the
// tensor-list and layer-list slices with the tensor objects in them (shape
// and data slices reused by capacity), and an intern table for the strings
// that repeat every round (layer names, the spec name). On the worker's
// receive loop — one assignment per round, same model shapes every time — a
// steady-state frame decodes with no heap allocation.
//
// The returned envelope and everything reachable from it are valid only
// until the next ReadFrame call on the same Decoder; callers that retain
// envelopes across reads (the server's per-connection readers hand them to
// another goroutine) use the package-level ReadFrame, which spends one
// Decoder per frame.
type Decoder struct {
	rd  io.Reader
	hdr [HeaderLen]byte

	env      Envelope
	hello    Hello
	assign   Assign
	result   Result
	shutdown Shutdown
	spec     zoo.Spec

	tensorLists recycler[*tensor.Tensor]
	layerLists  recycler[zoo.LayerSpec]

	names map[string]string
}

// NewDecoder returns a Decoder reading frames from rd.
func NewDecoder(rd io.Reader) *Decoder {
	return &Decoder{rd: rd, names: make(map[string]string)}
}

// recycler hands out the slices of one element type that a frame's lists
// decode into, in decode order, and hands the same ones out again for the
// next frame: identical frames (the common case: the same model every round)
// hit the same capacities — and the same elements, so a tensor list's
// tensors and a layer's body come back with it — every time.
type recycler[T any] struct {
	lists [][]T
	next  int
}

// get returns the next slice, resized to n (never nil).
func (r *recycler[T]) get(n int) []T {
	if r.next == len(r.lists) {
		r.lists = append(r.lists, nil)
	}
	l := r.lists[r.next]
	if cap(l) >= n && l != nil {
		l = l[:n]
	} else {
		grown := make([]T, n)
		copy(grown, l[:cap(l)])
		l = grown
	}
	r.lists[r.next] = l
	r.next++
	return l
}

// tensorList returns a tensor list of length n; its non-nil elements are
// tensors to decode into. A list on the wire, however short, is never nil —
// Result tells "no payload" from "an empty one" by it.
func (d *Decoder) tensorList(n int) []*tensor.Tensor { return d.tensorLists.get(n) }

// layerList returns a layer list of length n, nil when empty.
func (d *Decoder) layerList(n int) []zoo.LayerSpec {
	if n == 0 {
		return nil
	}
	return d.layerLists.get(n)
}

// intern returns a string for b, reusing a previously decoded copy when one
// exists (the map lookup on a []byte key does not allocate). ReadFrame's
// one-frame Decoder has no table to fill: it would never be read.
func (d *Decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if d.names != nil && len(d.names) < maxInternStrings {
		d.names[s] = s
	}
	return s
}

// ReadFrame reads and decodes one frame, recycling the previous frame's
// object graph: the envelope is invalidated by the next call. The payload is
// read into a pooled buffer and loaded by the walk of layout.go; a payload
// the walk does not consume to its last byte is malformed.
func (d *Decoder) ReadFrame() (*Envelope, int, error) {
	if _, err := io.ReadFull(d.rd, d.hdr[:]); err != nil {
		return nil, 0, err
	}
	kind, n, ver, err := parseHeader(d.hdr[:])
	if err != nil {
		return nil, HeaderLen, err
	}
	f := getBuf(n)
	defer putBuf(f)
	if _, err := io.ReadFull(d.rd, f.b); err != nil {
		return nil, HeaderLen, err
	}
	total := HeaderLen + n

	d.tensorLists.next, d.layerLists.next = 0, 0
	e := &d.env
	*e = Envelope{Kind: kind}
	switch kind {
	case KindHello:
		d.hello, e.Hello = Hello{}, &d.hello
	case KindAssign:
		d.assign, e.Assign = Assign{}, &d.assign
	case KindResult:
		d.result, e.Result = Result{}, &d.result
	case KindShutdown:
		d.shutdown, e.Shutdown = Shutdown{}, &d.shutdown
	case KindSnapshot, KindRoundClose:
		e.Snapshot = &Snapshot{}
	}
	c := coder{dir: load, buf: f.b, ver: ver, d: d}
	c.payload(e)
	if c.err == nil && c.off != len(c.buf) {
		c.fail("%d trailing bytes after payload", c.rem())
	}
	if c.err != nil {
		return nil, total, c.err
	}
	return e, total, nil
}
