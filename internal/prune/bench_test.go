package prune

import (
	"math/rand"
	"slices"
	"testing"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// BenchmarkStructureScores scores AlexNet's freshly initialised weights — the
// global model's l1 scoring the parameter server runs once a round before it
// plans any worker's sub-model — through NewContext (AbsSumRows), and through
// the sign-branch row loop the scores used before for comparison. The
// weights are random-sign, as trained weights are: on patterned data the
// branch predictor learns the signs and hides most of the difference.
func BenchmarkStructureScores(b *testing.B) {
	spec := zoo.AlexNetSpec()
	net, err := zoo.Build(spec, rand.New(rand.NewSource(51)))
	if err != nil {
		b.Fatal(err)
	}
	weights := nn.GetWeights(net)
	b.Run("NewContext", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NewContext(spec, weights, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The rows NewContext scores, less its walk: every filter and neuron.
	var sums []float64
	b.Run("AbsSumRows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range weights {
				if len(w.Shape) >= 2 {
					sums = slices.Grow(sums[:0], w.Shape[0])[:w.Shape[0]]
					tensor.AbsSumRows(sums, w.Data, len(w.Data)/w.Shape[0])
				}
			}
		}
	})
	b.Run("sign-branch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, w := range weights {
				if len(w.Shape) < 2 {
					continue
				}
				sums = slices.Grow(sums[:0], w.Shape[0])[:w.Shape[0]]
				per := len(w.Data) / w.Shape[0]
				for r := range sums {
					var s float64
					for _, v := range w.Data[r*per : (r+1)*per] {
						if v < 0 {
							s -= float64(v)
						} else {
							s += float64(v)
						}
					}
					sums[r] = s
				}
			}
		}
	})
}
