package codec

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"fedmp/internal/tensor"
)

// FuzzReadFrame throws arbitrary bytes at the decoder. The contract is
// totality within a budget: ReadFrame returns an envelope or an error, it
// never panics, and accepting or rejecting it allocates no more than
// allocBound allows for the input's length — any frame it does accept must
// re-encode to the same byte count its own size model predicts, and a
// Decoder must agree with the one-shot path bit for bit (checked by comparing
// their re-encodings, which also covers NaN payloads DeepEqual cannot).
func FuzzReadFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, e := range sampleEnvelopes(rng) {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, e); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// The same payload again with quantization on, seeding the int8
		// tensor modes and the assign quantize flag.
		if e.Kind == KindAssign || e.Kind == KindResult {
			q := *e
			q.Quantize = true
			buf.Reset()
			if _, err := WriteFrame(&buf, &q); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	for _, h := range hostileSparseFrames() {
		f.Add(h.frame)
	}
	f.Add([]byte{})
	f.Add([]byte("not a frame at all"))
	f.Add([]byte{magic0, magic1, version, byte(KindPing), 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, e2, err := decodeWithinBound(t, data)
		if err != nil {
			return
		}
		// Accepted frames must be internally consistent: re-encoding yields
		// a frame the size model agrees with (WriteFrame asserts that), and
		// that frame decodes again.
		var buf, buf2 bytes.Buffer
		if _, err := WriteFrame(&buf, e); err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if _, err := WriteFrame(&buf2, e2); err != nil {
			t.Fatalf("Decoder-decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("one-shot and Decoder decodes re-encode differently")
		}
		if _, _, err := ReadFrame(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
	})
}

// TestDecodeTruncated feeds every strict prefix of a valid frame to the
// decoder: all of them must fail cleanly (no panic, no success).
func TestDecodeTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i, e := range sampleEnvelopes(rng) {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, e); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		for cut := 0; cut < len(frame); cut++ {
			if _, _, err := ReadFrame(bytes.NewReader(frame[:cut])); err == nil {
				t.Fatalf("envelope %d truncated at %d/%d decoded successfully", i, cut, len(frame))
			}
		}
	}
}

// TestDecodeCorrupt flips every byte of a tensor-carrying frame one at a
// time; each decode must either fail or produce a structurally valid
// envelope — never panic, and never allocate past allocBound.
func TestDecodeCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := &Envelope{Kind: KindResult, Result: &Result{
		Round: 2,
		Delta: []*tensor.Tensor{randTensor(rng, 0.8, 9, 5), randTensor(rng, 0, 7)},
	}}
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, e); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for i := range frame {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), frame...)
			mut[i] ^= flip
			got, _, err := decodeWithinBound(t, mut)
			if err != nil {
				continue
			}
			if got.Kind == KindResult && got.Result == nil {
				t.Fatalf("byte %d ^ %#x: decoded result frame without payload", i, flip)
			}
		}
	}
}

// TestDecodeOversizedHeader pins that a header announcing a payload over
// MaxFrame is rejected before any read or allocation of that size.
func TestDecodeOversizedHeader(t *testing.T) {
	hdr := []byte{magic0, magic1, version, byte(KindResult), 0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized payload length accepted")
	}
	// And a plausible length with missing bytes is an I/O error, not a hang
	// or panic.
	hdr = []byte{magic0, magic1, version, byte(KindPing), 4, 0, 0, 0}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err != io.EOF && err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated payload returned %v, want an EOF error", err)
	}
}
