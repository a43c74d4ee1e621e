package core

import (
	"testing"

	"fedmp/internal/tensor"
	"fedmp/internal/transport/codec"
	"fedmp/internal/zoo"
)

// BenchmarkWorkerStep is one sim-cnn30-shaped assignment — the zoo CNN, four
// local steps at batch 8 — through WorkerStep, cycling three sub-model
// shapes: "fresh" builds a network and optimiser for every assignment, as an
// executor did whenever the shape was not one it had cached; "reshaped"
// re-dimensions the executor's one network in place. B/op shows the fresh
// network's first-touch allocations.
func BenchmarkWorkerStep(b *testing.B) {
	fam, err := NewImageFamily(zoo.ModelCNN)
	if err != nil {
		b.Fatal(err)
	}
	global := fam.InitWeights(1)
	var asg []*codec.Assign
	for _, ratio := range []float64{0.6, 0.2, 0.4} {
		_, desc, ws, err := fam.MakePlan(global, ratio, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		asg = append(asg, &codec.Assign{Round: 1, Desc: desc, Weights: ws, Iters: 4})
	}
	srcs, err := fam.Sources(1, NonIID{}, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	src := fixedSource{srcs[0].Next()}
	for _, mode := range []string{"fresh", "reshaped"} {
		b.Run(mode, func(b *testing.B) {
			local := NewLocalNet(fam, 0.05, 0.9, DefaultWeightDecay)
			var leftover []*tensor.Tensor
			step := func(i int) {
				if mode == "fresh" {
					local = NewLocalNet(fam, 0.05, 0.9, DefaultWeightDecay)
				}
				if _, err := WorkerStep(local, src, asg[i%len(asg)], 1, &leftover); err != nil {
					b.Fatal(err)
				}
			}
			for i := range asg {
				step(i) // the reshaped network grows to the largest shape
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
		})
	}
}
