package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fedmp/internal/zoo"
)

// allocBound is the most a decode of frame may allocate, accepted or
// rejected: a fixed 64 KiB (the Decoder, the intern table, the test's own
// reader) plus 40 bytes per frame byte, plus twice the payload length the
// header announces. The honest amplifiers are the sparse modes — one mask bit
// announces one float32, 32× — and lists of minimal entries (a 3-byte tensor
// costs its 48-byte object, a shape word and a list slot; a 1-byte bandit
// count an 8-byte int). The header's length is the one count a stream cannot
// check against bytes present: it sizes the pooled read buffer (rounded up to
// a power of two) and is capped by MaxFrame instead. Any other length field
// that sized an allocation before the bytes behind it were known to be there
// would overshoot this from a frame a few bytes long: the smallest cap,
// maxLayers, is 384 KiB of layer specs.
func allocBound(frame []byte) uint64 {
	bound := 64<<10 + 40*uint64(len(frame))
	if len(frame) >= HeaderLen {
		if n := binary.LittleEndian.Uint32(frame[4:]); n <= MaxFrame {
			bound += 2 * uint64(n)
		}
	}
	return bound
}

// decodeWithinBound decodes frame through both entry points — ReadFrame and
// a Decoder — and fails the test if they disagree on whether it is valid or
// if either allocates more than allocBound allows.
func decodeWithinBound(t *testing.T, frame []byte) (oneShot, recycled *Envelope, err error) {
	t.Helper()
	var before, mid, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, _, err := ReadFrame(bytes.NewReader(frame))
	runtime.ReadMemStats(&mid)
	e2, _, err2 := NewDecoder(bytes.NewReader(frame)).ReadFrame()
	runtime.ReadMemStats(&after)
	if (err == nil) != (err2 == nil) {
		t.Fatalf("one-shot err %v, Decoder err %v", err, err2)
	}
	for _, got := range []uint64{mid.TotalAlloc - before.TotalAlloc, after.TotalAlloc - mid.TotalAlloc} {
		if got > allocBound(frame) {
			t.Fatalf("decoding a %d-byte frame allocated %d bytes, bound %d (err %v)",
				len(frame), got, allocBound(frame), err)
		}
	}
	return e, e2, err
}

// rawFrame wraps a hand-built payload in a version-2 header.
func rawFrame(kind Kind, parts ...[]byte) []byte {
	payload := bytes.Join(parts, nil)
	hdr := []byte{magic0, magic1, version, byte(kind), 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	return append(hdr, payload...)
}

func uv(v uint64) []byte { return binary.AppendUvarint(nil, v) }

func f64le(v float64) []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
}

// TestHostileLengths is the oracle for the codec's one gate
// ((*coder).length): at every place a count crosses the wire, a frame a few
// bytes long that announces the cap, one past it, or a value chosen to wrap a
// 64-bit multiply must be rejected with an error — no panic — having
// allocated no more than allocBound; and one past the cap is rejected even
// when every byte it promises is there.
func TestHostileLengths(t *testing.T) {
	zeros := func(n int) []byte { return make([]byte, n) }
	snapHead := bytes.Join([][]byte{{0}, uv(0), f64le(0), f64le(0)}, nil) // round, no tensors, PrevLoss, RoundSum
	workerHead := bytes.Join([][]byte{snapHead, uv(0), uv(0), uv(1), {0}}, nil)
	banditHead := bytes.Join([][]byte{workerHead, uv(0), uv(0), f64le(0), {1}, uv(0), {0}}, nil)
	specHead := []byte{0, descSpec, 0, 0, 0, 0, 0} // round, tag, empty name, InC, InH, InW, Classes
	oneTensor := []byte{0, resultDelta, 1}         // round, tag, one tensor
	layer := zeros(16)                             // kind, empty name, five ints, rate, empty body
	tensor := []byte{1, 0, modeDense}              // rank 1, dimension 0, no data

	sites := []struct {
		name   string
		kind   Kind
		prefix []byte // the payload up to the count
		suffix []byte // a few bytes after it
		cap    uint64
		// entry, when set, is one minimal entry and tail the rest of a valid
		// frame: cap entries, all present, are accepted and cap+1 are not.
		// (The 2²⁰-entry bandit lists of 8 bytes and up go without: tens of
		// megabytes a row.)
		entry, tail []byte
	}{
		{name: "hello name bytes", kind: KindHello, cap: MaxFrame},
		{name: "hello id bytes", kind: KindHello, prefix: uv(0), cap: MaxFrame},
		{name: "shutdown reason bytes", kind: KindShutdown, cap: MaxFrame},
		{name: "assign tensors", kind: KindAssign, prefix: []byte{0, descNil}, cap: maxTensors, entry: tensor, tail: zeros(22)},
		{name: "result delta tensors", kind: KindResult, prefix: []byte{0, resultDelta}, cap: maxTensors, entry: tensor, tail: zeros(16)},
		{name: "result update tensors", kind: KindResult, prefix: []byte{0, resultUpdate}, cap: maxTensors, entry: tensor, tail: zeros(16)},
		{name: "tensor rank", kind: KindResult, prefix: oneTensor, cap: maxRank, entry: []byte{1}, tail: append([]byte{modeDense}, zeros(4+16)...)},
		{name: "tensor dimension", kind: KindResult, prefix: append(oneTensor[:3:3], 2), suffix: []byte{0, modeDense}, cap: maxElems},
		{name: "sparse nonzeros", kind: KindResult, prefix: append(oneTensor[:3:3], 1, 8, modeSparse), suffix: []byte{0xff}, cap: 8},
		{name: "quantized sparse nonzeros", kind: KindResult, prefix: append(oneTensor[:3:3], 1, 8, modeQuantSparse8), suffix: []byte{0, 0, 0x80, 0x3f, 0xff}, cap: 8},
		{name: "spec name bytes", kind: KindAssign, prefix: specHead[:2], cap: MaxFrame},
		{name: "spec layers", kind: KindAssign, prefix: specHead, cap: maxLayers, entry: layer, tail: zeros(23)},
		{name: "layer name bytes", kind: KindAssign, prefix: append(specHead[:7:7], 1, 0), cap: MaxFrame},
		{name: "residual body layers", kind: KindAssign, prefix: append(specHead[:7:7], append([]byte{1}, layer[:15]...)...), cap: maxLayers, entry: layer, tail: zeros(23)},
		{name: "snapshot tensors", kind: KindSnapshot, prefix: []byte{0}, cap: maxTensors, entry: tensor, tail: zeros(19)},
		{name: "snapshot prev times", kind: KindSnapshot, prefix: snapHead, cap: maxWorkers, entry: zeros(8), tail: zeros(2)},
		{name: "snapshot prev comm", kind: KindRoundClose, prefix: append(snapHead[:len(snapHead):len(snapHead)], 0), cap: maxWorkers, entry: zeros(8), tail: zeros(1)},
		{name: "snapshot workers", kind: KindSnapshot, prefix: append(snapHead[:len(snapHead):len(snapHead)], 0, 0), cap: maxWorkers, entry: zeros(12)},
		{name: "worker id bytes", kind: KindSnapshot, prefix: workerHead, cap: MaxFrame},
		{name: "worker name bytes", kind: KindSnapshot, prefix: append(workerHead[:len(workerHead):len(workerHead)], 0), cap: MaxFrame},
		{name: "bandit kind bytes", kind: KindSnapshot, prefix: banditHead[:len(banditHead)-2], cap: MaxFrame},
		{name: "bandit regions", kind: KindSnapshot, prefix: banditHead, cap: maxBanditItems},
		{name: "bandit pulls", kind: KindSnapshot, prefix: append(banditHead[:len(banditHead):len(banditHead)], 0), cap: maxBanditItems},
		{name: "bandit arms", kind: KindSnapshot, prefix: append(banditHead[:len(banditHead):len(banditHead)], 0, 0), cap: maxBanditItems},
		{name: "bandit counts", kind: KindSnapshot, prefix: append(banditHead[:len(banditHead):len(banditHead)], 0, 0, 0), cap: maxBanditItems, entry: zeros(1), tail: zeros(17)},
		{name: "bandit sums", kind: KindSnapshot, prefix: append(banditHead[:len(banditHead):len(banditHead)], 0, 0, 0, 0), cap: maxBanditItems},
	}
	for _, s := range sites {
		// 2⁶⁴/per for every per the gate is called with, rounded up, so that
		// count × per wraps to a small number; and plain 2⁶³.
		hostile := []uint64{s.cap, s.cap + 1, 1 << 63, 1 << 62, 1 << 61, 1 << 60, 1<<64/12 + 1, 1<<64/17 + 1}
		for _, n := range hostile {
			frame := rawFrame(s.kind, s.prefix, uv(n), s.suffix)
			if _, _, err := decodeWithinBound(t, frame); err == nil {
				t.Errorf("%s: count %d in a %d-byte frame accepted", s.name, n, len(frame))
			}
		}
		if s.entry == nil {
			continue
		}
		full := func(n int) []byte {
			return rawFrame(s.kind, s.prefix, uv(uint64(n)), bytes.Repeat(s.entry, n), s.tail)
		}
		if _, _, err := decodeWithinBound(t, full(int(s.cap))); err != nil {
			t.Errorf("%s: %d entries, all present, rejected: %v", s.name, s.cap, err)
		}
		if _, _, err := decodeWithinBound(t, full(int(s.cap)+1)); err == nil {
			t.Errorf("%s: %d entries, all present, accepted past the cap of %d", s.name, s.cap+1, s.cap)
		}
	}

	// The bounded dimension product: every dimension within its cap, the
	// product not — including one that wraps an unbounded multiply to zero.
	for _, dims := range [][]uint64{
		{maxElems, 2},
		{1 << 12, 1 << 12, 2},
		{maxElems, maxElems, maxElems, 0},
		{1 << 16, 1 << 16, 1 << 16, 1 << 16},
	} {
		payload := append([]byte{}, oneTensor...)
		payload = append(payload, byte(len(dims)))
		for _, d := range dims {
			payload = append(payload, uv(d)...)
		}
		frame := rawFrame(KindResult, payload, []byte{modeDense}, f64le(0), f64le(0))
		if _, _, err := decodeWithinBound(t, frame); err == nil {
			t.Errorf("dimensions %v accepted", dims)
		}
	}
	// One past a single dimension's cap with a zero beside it, in either
	// order: the product is fine, the dimension is not (WriteFrame used to
	// emit such a shape and ReadFrame refuse it).
	for _, dims := range [][2]uint64{{maxElems + 1, 0}, {0, maxElems + 1}} {
		frame := rawFrame(KindResult, oneTensor, []byte{2}, uv(dims[0]), uv(dims[1]), []byte{modeDense}, f64le(0), f64le(0))
		if _, _, err := decodeWithinBound(t, frame); err == nil {
			t.Errorf("dimensions %v accepted: one is past its cap", dims)
		}
	}
}

// TestReadFrameRetention pins what the server's per-connection readers rely
// on: an envelope from the package-level ReadFrame shares nothing with the
// next frame read from the same stream, so it can be handed to another
// goroutine — the reason ReadFrame's Decoder is spent on one frame.
func TestReadFrameRetention(t *testing.T) {
	first := &Envelope{Kind: KindAssign, Assign: &Assign{
		Round: 1, Desc: sampleSpec(), Iters: 2, Ratio: 0.25,
		Weights: sampleEnvelopes(rand.New(rand.NewSource(21)))[5].Result.Delta,
	}}
	second := &Envelope{Kind: KindAssign, Assign: &Assign{
		Round: 2, Desc: sampleSpec(), Iters: 9, Ratio: 0.75,
		Weights: sampleEnvelopes(rand.New(rand.NewSource(22)))[5].Result.Delta,
	}}
	spec2 := second.Assign.Desc.(*zoo.Spec)
	spec2.Name = "another-name"
	for i := range spec2.Layers {
		spec2.Layers[i].Name += "-2"
	}
	var stream bytes.Buffer
	for _, e := range []*Envelope{first, second} {
		if _, err := WriteFrame(&stream, e); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(&stream)
	got, _, err := ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	// A deep copy by re-encoding: the bytes the first envelope holds now.
	var held bytes.Buffer
	if _, err := WriteFrame(&held, got); err != nil {
		t.Fatal(err)
	}
	got2, _, err := ReadFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	envelopesEqual(t, second, got2)
	envelopesEqual(t, first, got)
	var again bytes.Buffer
	if _, err := WriteFrame(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(held.Bytes(), again.Bytes()) {
		t.Error("the first envelope changed when the second frame was read")
	}
}
