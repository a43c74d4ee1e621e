package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedmp/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite testdata/frames.golden from the current encoder")

// v1AssignFrame hand-builds a version-1 assign frame: a version-2 frame with
// the trailing Quantize byte dropped and the length and version rewritten.
// It returns the source envelope, its version-2 frame and the version-1 one.
func v1AssignFrame(t *testing.T) (e *Envelope, v2, v1 []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	e = &Envelope{Kind: KindAssign, Assign: &Assign{
		Round: 3, Weights: []*tensor.Tensor{randTensor(rng, 0.5, 9, 4)},
		Iters: 2, Ratio: 0.5,
	}}
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, e); err != nil {
		t.Fatal(err)
	}
	v2 = buf.Bytes()
	v1 = append([]byte(nil), v2[:len(v2)-1]...)
	v1[2] = 1
	binary.LittleEndian.PutUint32(v1[4:], uint32(len(v1)-HeaderLen))
	return e, v2, v1
}

// TestGoldenFrames pins the frame format byte for byte: one SHA-256 per
// sample envelope, plain and with Envelope.Quantize set, plus the version-1
// assign frame, against testdata/frames.golden. A field moved, widened or
// reordered in layout.go fails here even though every round trip still
// passes. Regenerate with `go test ./internal/transport/codec -run
// GoldenFrames -update` only in a PR that means to move the wire format, and
// say so.
func TestGoldenFrames(t *testing.T) {
	var got strings.Builder
	for i, e := range sampleEnvelopes(rand.New(rand.NewSource(5))) {
		for _, quantize := range []bool{false, true} {
			q := *e
			q.Quantize = quantize
			var buf bytes.Buffer
			if _, err := WriteFrame(&buf, &q); err != nil {
				t.Fatalf("envelope %d: %v", i, err)
			}
			name := fmt.Sprintf("%02d/kind%d", i, e.Kind)
			if quantize {
				name += "/quantize"
			}
			fmt.Fprintf(&got, "%s %d %x\n", name, buf.Len(), sha256.Sum256(buf.Bytes()))
		}
	}
	_, _, v1 := v1AssignFrame(t)
	fmt.Fprintf(&got, "v1-assign %d %x\n", len(v1), sha256.Sum256(v1))

	path := filepath.Join("testdata", "frames.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d frames, %s has %d", len(gotLines), path, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("frame bytes moved:\n  got  %s\n  want %s", gotLines[i], wantLines[i])
		}
	}
}
