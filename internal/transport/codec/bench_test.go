package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// trainedResult is a worker's result frame: AlexNet trained two SGD steps on
// eight random examples each, and the delta against its starting weights —
// exactly zero wherever the steps left a weight alone, so part of it takes
// the sparse mode.
func trainedResult(b *testing.B) *Envelope {
	rng := rand.New(rand.NewSource(41))
	spec := zoo.AlexNetSpec()
	net, err := zoo.Build(spec, rng)
	if err != nil {
		b.Fatal(err)
	}
	start := nn.GetWeights(net)
	opt := nn.NewSGD(0.05, 0.9, 0)
	for step := 0; step < 2; step++ {
		labels := make([]int, 8)
		for i := range labels {
			labels[i] = rng.Intn(spec.Classes)
		}
		net.TrainStep(&nn.Batch{X: tensor.RandN(rng, 8, spec.InC, spec.InH, spec.InW), Labels: labels})
		opt.Step(net.Params())
	}
	delta := nn.GetWeights(net)
	sparse := 0
	for i, d := range delta {
		d.Sub(start[i])
		if planTensor(d.Data, len(d.Data), false).mode == modeSparse {
			sparse++
		}
	}
	if sparse == 0 {
		b.Fatal("no tensor of the trained delta takes the sparse mode")
	}
	return &Envelope{Kind: KindResult, Result: &Result{Round: 1, Delta: delta, TrainLoss: 2.3, CompSeconds: 0.1}}
}

// BenchmarkWriteFrame encodes a trained result frame: the counting walk that
// plans each tensor, and the storing walk that replays the plans.
func BenchmarkWriteFrame(b *testing.B) {
	e := trainedResult(b)
	n, err := FrameBytes(e)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WriteFrame(discard{}, e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFrame decodes a trained result frame with a fresh Decoder per
// frame (ReadFrame, the fuzzers' and probes' way) and the way both ends of a
// session do, one Decoder recycling the previous frame's tensors.
func BenchmarkReadFrame(b *testing.B) {
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, trainedResult(b)); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	rd := bytes.NewReader(frame)
	b.Run("ReadFrame", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		for i := 0; i < b.N; i++ {
			rd.Reset(frame)
			if _, _, err := ReadFrame(rd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Decoder", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		d := NewDecoder(rd)
		for i := 0; i < b.N; i++ {
			rd.Reset(frame)
			if _, _, err := d.ReadFrame(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
