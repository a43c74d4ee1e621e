package prune

import (
	"math/rand"
	"testing"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// TestPruningThroughDropoutAndAvgPool verifies the planner walks specs
// containing parameter-free Dropout and AvgPool layers correctly: indices
// propagate through them unchanged and the R2SP identities still hold.
func TestPruningThroughDropoutAndAvgPool(t *testing.T) {
	spec := &zoo.Spec{
		Name: "drop-avg", InC: 1, InH: 8, InW: 8, Classes: 4,
		Layers: []zoo.LayerSpec{
			{Kind: zoo.KindConv, Name: "conv1", Out: 6, K: 3, Stride: 1, Pad: 1},
			{Kind: zoo.KindReLU, Name: "relu1"},
			{Kind: zoo.KindAvgPool, Name: "avg", Window: 2},
			{Kind: zoo.KindConv, Name: "conv2", Out: 8, K: 3, Stride: 1, Pad: 1},
			{Kind: zoo.KindDropout, Name: "drop1", Rate: 0.2},
			{Kind: zoo.KindFlatten, Name: "flat"},
			{Kind: zoo.KindDense, Name: "fc", Out: 12},
			{Kind: zoo.KindDropout, Name: "drop2", Rate: 0.2},
			{Kind: zoo.KindDense, Name: "out", Out: 4},
		},
	}
	net, err := zoo.Build(spec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	ws := nn.GetWeights(net)
	plan, err := BuildPlan(spec, ws, 0.5)
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

	rec, err := Recover(spec, subW, plan)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := Sparse(spec, ws, plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if !tensor.Equal(rec[i], sparse[i]) {
			t.Fatalf("tensor %d: Recover(Shrink) != Sparse with dropout/avgpool layers", i)
		}
	}
	// Eval-mode functional equivalence: sub-model forward == sparse-full
	// forward (dropout disabled in eval, so both are deterministic).
	fullNet, err := zoo.Build(spec, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	nn.SetWeights(fullNet, sparse)
	x := tensor.RandN(rand.New(rand.NewSource(4)), 3, 1, 8, 8)
	a := subNet.Forward(x, false)
	b := fullNet.Forward(x, false)
	if !tensor.AllClose(a, b, 1e-5) {
		t.Error("sub-model and sparse-full logits diverge through dropout/avgpool")
	}
}
