package codec

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fedmp/internal/bandit"
	"fedmp/internal/prune"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// randTensor builds a tensor with the given zero density (fraction of
// elements forced to zero) and a sprinkling of special values.
func randTensor(rng *rand.Rand, zeroFrac float64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		switch {
		case rng.Float64() < zeroFrac:
			// stays zero
		case rng.Float64() < 0.02:
			t.Data[i] = float32(math.NaN())
		case rng.Float64() < 0.02:
			t.Data[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
		case rng.Float64() < 0.02:
			t.Data[i] = float32(math.Copysign(0, -1)) // negative zero
		default:
			t.Data[i] = rng.Float32()*2 - 1
		}
	}
	return t
}

// sampleSpec is a desc with every layer family, including a residual body.
func sampleSpec() *zoo.Spec {
	return &zoo.Spec{
		Name: "codec-test", InC: 1, InH: 8, InW: 8, Classes: 4,
		Layers: []zoo.LayerSpec{
			{Kind: zoo.KindConv, Name: "c1", Out: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: zoo.KindBatchNorm, Name: "bn1"},
			{Kind: zoo.KindReLU, Name: "r1"},
			{Kind: zoo.KindResidual, Name: "res1", Body: []zoo.LayerSpec{
				{Kind: zoo.KindConv, Name: "res1c", Out: 4, K: 3, Stride: 1, Pad: 1},
				{Kind: zoo.KindReLU, Name: "res1r"},
			}},
			{Kind: zoo.KindMaxPool, Name: "p1", Window: 2},
			{Kind: zoo.KindDropout, Name: "d1", Rate: 0.25},
			{Kind: zoo.KindFlatten, Name: "f"},
			{Kind: zoo.KindDense, Name: "fc", Out: 4},
		},
	}
}

// sampleBandit builds a populated policy state exercising every field,
// including non-finite rewards.
func sampleBandit(rng *rand.Rand) *bandit.State {
	return &bandit.State{
		Kind:  "eucb",
		Round: 12,
		Regions: []bandit.Region{
			{Lo: 0, Hi: 0.4},
			{Lo: 0.4, Hi: 0.8},
		},
		Pulls: []bandit.PullRecord{
			{Round: 1, Ratio: 0.3, Reward: 0.9},
			{Round: 2, Ratio: 0.7, Reward: math.Inf(-1)},
			{Round: 3, Ratio: 0.5, Reward: math.NaN()},
		},
		Arms:   []float64{0.2, 0.4, 0.6},
		Counts: []int{3, 0, 9},
		Sums:   []float64{1.5, 0, rng.Float64()},
		Eps:    0.1,
		Ratio:  0.5,
	}
}

// sampleSnapshot builds a durability payload with a populated worker table,
// nil and non-nil bandit states, and special float values throughout.
func sampleSnapshot(rng *rand.Rand) *Snapshot {
	return &Snapshot{
		Round: 7,
		Global: []*tensor.Tensor{
			randTensor(rng, 0, 4, 1, 3, 3),
			randTensor(rng, 0.9, 17, 9),
		},
		PrevLoss:  math.NaN(), // pre-first-aggregation sentinel must survive
		RoundSum:  12.5,
		PrevTimes: []float64{1.5, math.Inf(1), 0.25},
		PrevComm:  []float64{0.1, 0.2, math.Copysign(0, -1)},
		Workers: []WorkerState{
			{Slot: 0, ID: "id-a", Name: "w0", Ratio: 0.4, Bandit: sampleBandit(rng)},
			{Slot: 1, Name: "w1", Ratio: 0.8}, // no ID, no bandit
			{Slot: 2, ID: "id-c", Name: "w2", Bandit: &bandit.State{Kind: "fixed", Ratio: 0.3}},
		},
	}
}

// sampleEnvelopes covers every kind and payload shape once.
func sampleEnvelopes(rng *rand.Rand) []*Envelope {
	dense := []*tensor.Tensor{
		randTensor(rng, 0, 4, 1, 3, 3),
		randTensor(rng, 0, 4),
		randTensor(rng, 0, 0), // zero-length
	}
	sparse := []*tensor.Tensor{
		randTensor(rng, 0.9, 17, 9),
		randTensor(rng, 1.0, 33), // all-zero
	}
	return []*Envelope{
		{Kind: KindHello, Hello: &Hello{Name: "worker-a", ID: "id-123"}},
		{Kind: KindHello, Hello: &Hello{}},
		{Kind: KindAssign, Assign: &Assign{
			Round: 3, Desc: sampleSpec(), Weights: dense,
			Iters: 5, ProxMu: 0.01, UploadK: 0.1, Ratio: 0.4,
		}},
		{Kind: KindAssign, Assign: &Assign{
			Round: 1, Desc: zoo.LMConfig{Vocab: 50, Embed: 8, Hidden: 16, SeqLen: 12},
			Weights: sparse, Iters: 1,
		}},
		{Kind: KindAssign, Assign: &Assign{Round: 200}},
		{Kind: KindResult, Result: &Result{
			Round: 3, Delta: append(append([]*tensor.Tensor{}, dense...), sparse...),
			TrainLoss: 1.25, CompSeconds: 0.5,
		}},
		{Kind: KindResult, Result: &Result{Round: 4, Update: sparse, TrainLoss: math.NaN()}},
		{Kind: KindResult, Result: &Result{Round: 9}},
		{Kind: KindShutdown, Shutdown: &Shutdown{Reason: "done"}},
		{Kind: KindPing},
		{Kind: KindPong},
		{Kind: KindSnapshot, Snapshot: sampleSnapshot(rng)},
		{Kind: KindRoundClose, Snapshot: sampleSnapshot(rng)},
		{Kind: KindRoundClose, Snapshot: &Snapshot{}}, // empty state
	}
}

// f64sBitEqual compares float64 lists bit-exactly.
func f64sBitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// banditsEqual compares policy states bit-exactly (NaN rewards count).
func banditsEqual(a, b *bandit.State) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Kind != b.Kind || a.Round != b.Round ||
		len(a.Regions) != len(b.Regions) || len(a.Pulls) != len(b.Pulls) ||
		!reflect.DeepEqual(a.Counts, b.Counts) ||
		!f64sBitEqual(a.Arms, b.Arms) || !f64sBitEqual(a.Sums, b.Sums) ||
		math.Float64bits(a.Eps) != math.Float64bits(b.Eps) ||
		math.Float64bits(a.Ratio) != math.Float64bits(b.Ratio) {
		return false
	}
	for i := range a.Regions {
		if a.Regions[i] != b.Regions[i] {
			return false
		}
	}
	for i := range a.Pulls {
		p, q := a.Pulls[i], b.Pulls[i]
		if p.Round != q.Round ||
			math.Float64bits(p.Ratio) != math.Float64bits(q.Ratio) ||
			math.Float64bits(p.Reward) != math.Float64bits(q.Reward) {
			return false
		}
	}
	return true
}

// snapshotsEqual compares durability payloads bit-exactly.
func snapshotsEqual(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if want.Round != got.Round ||
		math.Float64bits(want.PrevLoss) != math.Float64bits(got.PrevLoss) ||
		math.Float64bits(want.RoundSum) != math.Float64bits(got.RoundSum) {
		t.Errorf("snapshot scalars round-trip: %+v != %+v", got, want)
	}
	if !tensorsBitEqual(want.Global, got.Global) {
		t.Errorf("snapshot global tensors round-trip lost bits")
	}
	if !f64sBitEqual(want.PrevTimes, got.PrevTimes) || !f64sBitEqual(want.PrevComm, got.PrevComm) {
		t.Errorf("snapshot per-worker times round-trip lost bits")
	}
	if len(want.Workers) != len(got.Workers) {
		t.Fatalf("snapshot round-trip: %d workers, want %d", len(got.Workers), len(want.Workers))
	}
	for i := range want.Workers {
		w, g := &want.Workers[i], &got.Workers[i]
		if w.Slot != g.Slot || w.ID != g.ID || w.Name != g.Name ||
			math.Float64bits(w.Ratio) != math.Float64bits(g.Ratio) {
			t.Errorf("worker %d round-trip: %+v != %+v", i, g, w)
		}
		if !banditsEqual(w.Bandit, g.Bandit) {
			t.Errorf("worker %d bandit state round-trip differs", i)
		}
	}
}

// tensorsBitEqual compares tensor lists by exact bit pattern, so NaN
// payloads and negative zeros count.
func tensorsBitEqual(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Shape, b[i].Shape) || len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for j := range a[i].Data {
			if math.Float32bits(a[i].Data[j]) != math.Float32bits(b[i].Data[j]) {
				return false
			}
		}
	}
	return true
}

func envelopesEqual(t *testing.T, want, got *Envelope) {
	t.Helper()
	if want.Kind != got.Kind {
		t.Fatalf("kind %d round-tripped to %d", want.Kind, got.Kind)
	}
	switch want.Kind {
	case KindHello:
		if *want.Hello != *got.Hello {
			t.Errorf("hello round-trip: %+v != %+v", got.Hello, want.Hello)
		}
	case KindAssign:
		w, g := want.Assign, got.Assign
		if w.Round != g.Round || w.Iters != g.Iters || w.ProxMu != g.ProxMu ||
			w.UploadK != g.UploadK || w.Ratio != g.Ratio {
			t.Errorf("assign scalars round-trip: %+v != %+v", g, w)
		}
		if !reflect.DeepEqual(w.Desc, g.Desc) {
			t.Errorf("desc round-trip: %#v != %#v", g.Desc, w.Desc)
		}
		if !tensorsBitEqual(w.Weights, g.Weights) {
			t.Errorf("weights round-trip lost bits")
		}
	case KindResult:
		w, g := want.Result, got.Result
		if w.Round != g.Round ||
			math.Float64bits(w.TrainLoss) != math.Float64bits(g.TrainLoss) ||
			w.CompSeconds != g.CompSeconds {
			t.Errorf("result scalars round-trip: %+v != %+v", g, w)
		}
		if !tensorsBitEqual(w.Delta, g.Delta) || !tensorsBitEqual(w.Update, g.Update) {
			t.Errorf("result tensors round-trip lost bits")
		}
	case KindShutdown:
		if *want.Shutdown != *got.Shutdown {
			t.Errorf("shutdown round-trip: %+v != %+v", got.Shutdown, want.Shutdown)
		}
	case KindSnapshot, KindRoundClose:
		snapshotsEqual(t, want.Snapshot, got.Snapshot)
	}
}

// TestRoundTrip pins that every message kind survives encode/decode
// bit-exactly and that FrameBytes predicts the written size to the byte —
// the property that lets the simulation charge the same traffic the TCP
// runtime measures — and that AppendFrame appends exactly WriteFrame's bytes
// after whatever its buffer already holds.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	appended := []byte("prefix")
	for i, e := range sampleEnvelopes(rng) {
		var buf bytes.Buffer
		wrote, err := WriteFrame(&buf, e)
		if err != nil {
			t.Fatalf("envelope %d: write: %v", i, err)
		}
		start := len(appended)
		if appended, err = AppendFrame(appended, e); err != nil {
			t.Fatalf("envelope %d: append: %v", i, err)
		}
		if !bytes.Equal(appended[start:], buf.Bytes()) || !bytes.HasPrefix(appended, []byte("prefix")) {
			t.Fatalf("envelope %d: AppendFrame's bytes differ from WriteFrame's", i)
		}
		predicted, err := FrameBytes(e)
		if err != nil {
			t.Fatalf("envelope %d: size: %v", i, err)
		}
		if int64(wrote) != predicted || int64(buf.Len()) != predicted {
			t.Fatalf("envelope %d: wrote %d bytes, buffered %d, size model says %d",
				i, wrote, buf.Len(), predicted)
		}
		got, read, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("envelope %d: read: %v", i, err)
		}
		if int64(read) != predicted {
			t.Fatalf("envelope %d: read %d bytes, want %d", i, read, predicted)
		}
		envelopesEqual(t, e, got)
	}
}

// TestSparseDenseEquivalence decodes the same values from both modes: a
// tensor sparse enough to take the bitmask path must round-trip to exactly
// the same data a dense copy of it does.
func TestSparseDenseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, zeroFrac := range []float64{0, 0.3, 0.77, 0.95, 1} {
		orig := randTensor(rng, zeroFrac, 13, 7)
		// Sweeping the zero fraction crosses the mode threshold, so both
		// the dense and the sparse encoder must reproduce the same data.
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, &Envelope{Kind: KindResult, Result: &Result{Round: 1, Delta: []*tensor.Tensor{orig}}}); err != nil {
			t.Fatal(err)
		}
		got, _, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !tensorsBitEqual([]*tensor.Tensor{orig}, got.Result.Delta) {
			t.Errorf("zeroFrac %.2f: decoded tensor differs from source", zeroFrac)
		}
	}
}

// TestSparseModeShrinksFrames pins the point of the sparse mode: a mostly
// zero payload (a pruned model's update) costs a small fraction of its dense
// frame, and an incompressible payload is never made larger than dense plus
// the mode byte.
func TestSparseModeShrinksFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	frame := func(zeroFrac float64) int64 {
		upd := []*tensor.Tensor{randTensor(rng, zeroFrac, 64, 64)}
		n, err := FrameBytes(&Envelope{Kind: KindResult, Result: &Result{Round: 1, Update: upd}})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	dense, mostlyZero := frame(0), frame(0.95)
	if mostlyZero >= dense/3 {
		t.Errorf("95%%-zero frame is %d bytes, dense %d; want < 1/3", mostlyZero, dense)
	}
}

// TestEncodeErrors pins that unencodable envelopes error out instead of
// panicking or emitting garbage.
func TestEncodeErrors(t *testing.T) {
	bad := []*Envelope{
		{Kind: KindHello}, // missing payload
		{Kind: Kind(99)},  // unknown kind
		{Kind: KindAssign, Assign: &Assign{Desc: 42}}, // unsupported desc type
		{Kind: KindAssign, Assign: &Assign{Desc: (*zoo.Spec)(nil)}},
		{Kind: KindAssign, Assign: &Assign{Weights: []*tensor.Tensor{nil}}},
		{Kind: KindAssign, Assign: &Assign{Weights: []*tensor.Tensor{
			{Shape: []int{3}, Data: make([]float32, 2)}, // shape/data mismatch
		}}},
		{Kind: KindResult, Result: &Result{
			Delta:  []*tensor.Tensor{tensor.New(1)},
			Update: []*tensor.Tensor{tensor.New(1)}, // both payloads set
		}},
		// Shapes the decoder refuses: a dimension past its cap (even beside
		// a zero), a product that wraps to the (empty) data length.
		{Kind: KindAssign, Assign: &Assign{Weights: []*tensor.Tensor{{Shape: []int{1 << 40, 0}}}}},
		{Kind: KindAssign, Assign: &Assign{Weights: []*tensor.Tensor{{Shape: []int{1 << 32, 1 << 32}}}}},
		{Kind: KindResult, Result: &Result{Delta: []*tensor.Tensor{{Shape: []int{1 << 25, 0}}}}},
		{Kind: KindSnapshot, Snapshot: &Snapshot{Global: []*tensor.Tensor{{Shape: []int{maxElems, 2, 0}}}}},
		{Kind: KindSnapshot, Snapshot: &Snapshot{Workers: []WorkerState{{Slot: -1}}}},
		{Kind: KindSnapshot},   // missing payload
		{Kind: KindRoundClose}, // missing payload
		{Kind: KindSnapshot, Snapshot: &Snapshot{
			Global: []*tensor.Tensor{nil},
		}},
	}
	for i, e := range bad {
		if _, err := WriteFrame(&bytes.Buffer{}, e); err == nil {
			t.Errorf("envelope %d encoded without error", i)
		}
		if _, err := FrameBytes(e); err == nil {
			t.Errorf("envelope %d sized without error", i)
		}
		if got, err := AppendFrame([]byte("kept"), e); err == nil || string(got) != "kept" {
			t.Errorf("envelope %d appended as %q, error %v; want the buffer unchanged and an error", i, got, err)
		}
	}
}

// expectedQuantized returns the values a tensor should decode to after an
// Envelope.Quantize encode: the int8 round trip when the planner picked a
// quantized mode, the original bits otherwise.
func expectedQuantized(t *tensor.Tensor) []float32 {
	p := planTensor(t.Data, len(t.Data), true)
	out := make([]float32, len(t.Data))
	if p.mode != modeQuant8 && p.mode != modeQuantSparse8 {
		copy(out, t.Data)
		return out
	}
	inv := 1 / float64(p.scale)
	for i, v := range t.Data {
		out[i] = float32(prune.QuantizeElem(v, inv)) * p.scale
	}
	return out
}

// TestQuantizedRoundTrip pins the lossy contract: with Envelope.Quantize
// set, every tensor decodes to exactly the int8 reconstruction the shared
// quantization helpers predict (or to its original bits where quantization
// was refused or not cheaper), the frame still matches its size model to the
// byte, and Assign.Quantize survives the wire.
func TestQuantizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	finite := func(zeroFrac float64, shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		for i := range t.Data {
			if rng.Float64() >= zeroFrac {
				t.Data[i] = rng.Float32()*2 - 1
			}
		}
		return t
	}
	weights := []*tensor.Tensor{
		finite(0, 32, 16),  // dense: quant-dense should win
		finite(0.9, 64, 8), // sparse: quant-sparse should win
		finite(1.0, 33),    // all-zero: not quantizable, stays sparse
		tensor.New(3),      // tiny all-zero
		tensor.New(0),      // zero-length
		{Shape: []int{4}, Data: []float32{1, float32(math.NaN()), 2, -3}}, // non-finite: refused
	}
	e := &Envelope{Kind: KindAssign, Quantize: true, Assign: &Assign{
		Round: 5, Desc: sampleSpec(), Weights: weights,
		Iters: 2, ProxMu: 0.01, UploadK: 0.1, Ratio: 0.3, Quantize: true,
	}}
	var buf bytes.Buffer
	wrote, err := WriteFrame(&buf, e)
	if err != nil {
		t.Fatal(err)
	}
	predicted, err := FrameBytes(e)
	if err != nil {
		t.Fatal(err)
	}
	if int64(wrote) != predicted {
		t.Fatalf("wrote %d bytes, size model says %d", wrote, predicted)
	}
	got, _, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Assign.Quantize {
		t.Error("Assign.Quantize lost on the wire")
	}
	if got.Quantize {
		t.Error("decode set the encoder-side Envelope.Quantize directive")
	}
	sawQuant := false
	for i, w := range weights {
		want := expectedQuantized(w)
		g := got.Assign.Weights[i].Data
		if len(g) != len(want) {
			t.Fatalf("tensor %d: %d elements, want %d", i, len(g), len(want))
		}
		for j := range want {
			if math.Float32bits(g[j]) != math.Float32bits(want[j]) {
				t.Fatalf("tensor %d elem %d: %x, want %x", i, j,
					math.Float32bits(g[j]), math.Float32bits(want[j]))
			}
		}
		p := planTensor(w.Data, len(w.Data), true)
		if p.mode == modeQuant8 || p.mode == modeQuantSparse8 {
			sawQuant = true
		}
	}
	if !sawQuant {
		t.Error("no tensor picked a quantized mode; test inputs too weak")
	}
	// The non-finite and all-zero tensors must have kept full precision.
	for _, i := range []int{2, 5} {
		p := planTensor(weights[i].Data, len(weights[i].Data), true)
		if p.mode == modeQuant8 || p.mode == modeQuantSparse8 {
			t.Errorf("tensor %d quantized despite being unquantizable", i)
		}
	}
}

// TestQuantizedFramesShrink pins the payoff: a quantized result frame costs
// roughly a quarter of its float32 encoding, in both the dense and the
// sparse (FlexCom keep-0.2) regimes.
func TestQuantizedFramesShrink(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, zeroFrac := range []float64{0, 0.8} {
		upd := []*tensor.Tensor{tensor.New(64, 64)}
		for i := range upd[0].Data {
			if rng.Float64() >= zeroFrac {
				upd[0].Data[i] = rng.Float32()*2 - 1
			}
		}
		res := &Result{Round: 1, Update: upd}
		plain, err := FrameBytes(&Envelope{Kind: KindResult, Result: res})
		if err != nil {
			t.Fatal(err)
		}
		quant, err := FrameBytes(&Envelope{Kind: KindResult, Result: res, Quantize: true})
		if err != nil {
			t.Fatal(err)
		}
		if quant*10 > plain*4 {
			t.Errorf("zeroFrac %.1f: quantized frame %d bytes vs %d float32; want < 40%%",
				zeroFrac, quant, plain)
		}
	}
}

// TestDequantizedMatchesWire pins the simulation's mirror: Dequantized must
// deliver bit-for-bit the values a real encode/decode round trip of a
// Quantize-enabled frame produces, alias tensors the plan keeps at full
// precision, and never touch its inputs.
func TestDequantizedMatchesWire(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	weights := []*tensor.Tensor{
		tensor.New(16, 8),
		tensor.New(128),
		tensor.New(33), // stays all-zero: unquantizable, must alias
		tensor.New(0),
	}
	for _, w := range weights[:2] {
		for i := range w.Data {
			if rng.Float64() >= 0.3 {
				w.Data[i] = rng.Float32()*2 - 1
			}
		}
	}
	orig := make([][]float32, len(weights))
	for i, w := range weights {
		orig[i] = append([]float32(nil), w.Data...)
	}

	var buf bytes.Buffer
	e := &Envelope{Kind: KindResult, Quantize: true, Result: &Result{Round: 1, Update: weights}}
	if _, err := WriteFrame(&buf, e); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	mirror := Dequantized(weights)
	if !tensorsBitEqual(got.Result.Update, mirror) {
		t.Error("Dequantized disagrees with the wire round trip")
	}
	for i, w := range weights {
		p := planTensor(w.Data, len(w.Data), true)
		quantized := p.mode == modeQuant8 || p.mode == modeQuantSparse8
		if quantized && mirror[i] == w {
			t.Errorf("tensor %d: quantized mode but Dequantized aliased the input", i)
		}
		if !quantized && mirror[i] != w {
			t.Errorf("tensor %d: full-precision mode but Dequantized copied", i)
		}
		for j, v := range orig[i] {
			if math.Float32bits(w.Data[j]) != math.Float32bits(v) {
				t.Fatalf("tensor %d elem %d mutated", i, j)
			}
		}
	}
	if p := planTensor(weights[0].Data, len(weights[0].Data), true); p.mode != modeQuant8 && p.mode != modeQuantSparse8 {
		t.Error("dense test tensor did not pick a quantized mode; inputs too weak")
	}
}

// TestVersion1Compat pins backward compatibility: a version-1 assign frame
// (no trailing Quantize flag) still decodes, with Quantize false — old WALs
// and checkpoints stay readable — while a v1 frame carrying v2 bytes or an
// unknown version is rejected.
func TestVersion1Compat(t *testing.T) {
	e, frame, v1 := v1AssignFrame(t)
	if frame[2] != version {
		t.Fatalf("encoder stamped version %d, want %d", frame[2], version)
	}
	got, _, err := ReadFrame(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 frame rejected: %v", err)
	}
	if got.Assign.Quantize {
		t.Error("v1 frame decoded with Quantize set")
	}
	if !tensorsBitEqual(e.Assign.Weights, got.Assign.Weights) {
		t.Error("v1 weights round-trip lost bits")
	}

	// A v1 header on the full v2 payload has a trailing byte: rejected.
	v1full := append([]byte(nil), frame...)
	v1full[2] = 1
	if _, _, err := ReadFrame(bytes.NewReader(v1full)); err == nil {
		t.Error("v1 frame with v2 payload accepted")
	}
	// Versions beyond the encoder's are rejected outright.
	v3 := append([]byte(nil), frame...)
	v3[2] = 3
	if _, _, err := ReadFrame(bytes.NewReader(v3)); err == nil {
		t.Error("version-3 frame accepted")
	}
}

// TestDecoderReuse runs every sample envelope through one Decoder twice, in
// sequence, comparing each decode against the one-shot path. Shapes, tensor
// counts and string sets vary frame to frame, so this exercises the recycled
// object graph's resizing and clearing.
func TestDecoderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	samples := sampleEnvelopes(rng)
	var stream bytes.Buffer
	for range 2 {
		for _, e := range samples {
			if _, err := WriteFrame(&stream, e); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := NewDecoder(&stream)
	for pass := range 2 {
		for i, want := range samples {
			got, _, err := d.ReadFrame()
			if err != nil {
				t.Fatalf("pass %d envelope %d: %v", pass, i, err)
			}
			envelopesEqual(t, want, got)
		}
	}
	if _, _, err := d.ReadFrame(); err == nil {
		t.Fatal("decoder read past the stream end")
	}

	// A recycled layer list must not keep what the new frame leaves empty:
	// the same spec again, its names and residual body gone.
	bare := sampleSpec()
	for i := range bare.Layers {
		bare.Layers[i].Name, bare.Layers[i].Body = "", nil
	}
	for _, spec := range []*zoo.Spec{sampleSpec(), bare} {
		want := &Envelope{Kind: KindAssign, Assign: &Assign{Desc: spec}}
		if _, err := WriteFrame(&stream, want); err != nil {
			t.Fatal(err)
		}
		got, _, err := d.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		envelopesEqual(t, want, got)
	}
}

// TestDecoderSteadyStateAllocs pins the decode-side allocation fix: once the
// Decoder has seen a round's assign frame, decoding the next round's (same
// shapes, same spec — the worker's steady state) allocates nothing.
func TestDecoderSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	e := &Envelope{Kind: KindAssign, Assign: &Assign{
		Round: 2, Desc: sampleSpec(),
		Weights: []*tensor.Tensor{randTensor(rng, 0, 32, 16), randTensor(rng, 0.9, 512)},
		Iters:   3,
	}}
	var frame bytes.Buffer
	if _, err := WriteFrame(&frame, e); err != nil {
		t.Fatal(err)
	}
	raw := frame.Bytes()
	rd := bytes.NewReader(raw)
	d := NewDecoder(rd)
	avg := testing.AllocsPerRun(50, func() {
		rd.Reset(raw)
		if _, _, err := d.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0 {
		t.Errorf("Decoder.ReadFrame allocates %.1f objects per frame in steady state, want 0", avg)
	}
}

// TestWriteFrameSteadyStateAllocs pins the encoders' buffer reuse: after
// warm-up, WriteFrame (pooled frame buffer and plan log), AppendFrame into a
// kept buffer, and FrameBytes (one counting walk, no plan log) cost no heap
// allocation — on an assign and on a result with a sparse delta.
func TestWriteFrameSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	envelopes := []*Envelope{
		{Kind: KindAssign, Assign: &Assign{
			Round: 2, Desc: sampleSpec(),
			Weights: []*tensor.Tensor{randTensor(rng, 0, 32, 16), randTensor(rng, 0.9, 512)},
			Iters:   3,
		}},
		{Kind: KindResult, Result: &Result{
			Round: 2, Delta: []*tensor.Tensor{randTensor(rng, 0.9, 32, 16), randTensor(rng, 0.95, 512)},
		}},
	}
	var kept []byte
	for _, e := range envelopes {
		for name, encode := range map[string]func() error{
			"WriteFrame": func() error { _, err := WriteFrame(discard{}, e); return err },
			"AppendFrame": func() error {
				var err error
				kept, err = AppendFrame(kept[:0], e)
				return err
			},
			"FrameBytes": func() error { _, err := FrameBytes(e); return err },
		} {
			avg := testing.AllocsPerRun(50, func() {
				if err := encode(); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 0 {
				t.Errorf("%s of a kind-%d frame allocates %.1f objects in steady state, want 0", name, e.Kind, avg)
			}
		}
	}
}

// discard counts nothing and retains nothing.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
