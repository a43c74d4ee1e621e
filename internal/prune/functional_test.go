package prune

import (
	"math/rand"
	"testing"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// TestSubModelFunctionallyEqualsSparseModel is the strongest pruning
// correctness check: for every experiment architecture, the physically
// shrunk sub-model must compute *exactly* the same function as the full
// model loaded with the sparse (zero-masked) weights — in both train and
// eval mode. Index-bookkeeping bugs that the round-trip identities cannot
// catch (e.g. a transposed channel mapping that happens to be a bijection)
// fail this test.
func TestSubModelFunctionallyEqualsSparseModel(t *testing.T) {
	sparseLayers := 0
	for _, id := range zoo.ImageModelIDs {
		for _, ratio := range []float64{0.25, 0.6} {
			spec, err := zoo.SpecFor(id)
			if err != nil {
				t.Fatal(err)
			}
			net, err := zoo.Build(spec, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			ws := nn.GetWeights(net)
			plan, err := BuildPlan(spec, ws, ratio)
			if err != nil {
				t.Fatal(err)
			}
			subSpec, subW, err := Shrink(spec, ws, plan, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			subNet, err := zoo.Build(subSpec, rand.New(rand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			nn.SetWeights(subNet, subW)

			sparse, err := Sparse(spec, ws, plan)
			if err != nil {
				t.Fatal(err)
			}
			fullNet, err := zoo.Build(spec, rand.New(rand.NewSource(3)))
			if err != nil {
				t.Fatal(err)
			}
			nn.SetWeights(fullNet, sparse)
			// Route masked dense layers through the sparsity-aware kernel so
			// this comparison also proves the skip path computes the same
			// function as the branch-free dense kernels.
			sparseLayers += nn.MarkSparseWeights(fullNet)

			x := tensor.RandN(rand.New(rand.NewSource(4)), 3, spec.InC, spec.InH, spec.InW)
			for _, train := range []bool{false, true} {
				a := subNet.Forward(x, train)
				b := fullNet.Forward(x, train)
				if !tensor.AllClose(a, b, 1e-4) {
					t.Errorf("%s ratio %.2f train=%v: sub-model and sparse-full logits diverge",
						id, ratio, train)
				}
			}
		}
	}
	if sparseLayers == 0 {
		t.Error("no masked model enabled the sparse dense kernel; structured pruning should leave zero weight rows")
	}
}
