package zoo

import (
	"math"
	"math/rand"
	"testing"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
)

func buildAll(t *testing.T) map[ModelID]*nn.Sequential {
	t.Helper()
	out := map[ModelID]*nn.Sequential{}
	rng := rand.New(rand.NewSource(1))
	for _, id := range ImageModelIDs {
		spec, err := SpecFor(id)
		if err != nil {
			t.Fatalf("SpecFor(%s): %v", id, err)
		}
		net, err := Build(spec, rng)
		if err != nil {
			t.Fatalf("Build(%s): %v", id, err)
		}
		out[id] = net
	}
	return out
}

func TestAllSpecsValidateAndBuild(t *testing.T) {
	buildAll(t)
}

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, id := range ImageModelIDs {
		spec, _ := SpecFor(id)
		net, err := Build(spec, rng)
		if err != nil {
			t.Fatalf("Build(%s): %v", id, err)
		}
		x := tensor.RandN(rng, 2, spec.InC, spec.InH, spec.InW)
		logits := net.Forward(x, true)
		if len(logits.Shape) != 2 || logits.Shape[0] != 2 || logits.Shape[1] != spec.Classes {
			t.Errorf("%s: logits shape %v, want [2 %d]", id, logits.Shape, spec.Classes)
		}
		if !logits.IsFinite() {
			t.Errorf("%s: non-finite logits at init", id)
		}
	}
}

func TestTrainStepRunsOnAllModels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, id := range ImageModelIDs {
		spec, _ := SpecFor(id)
		net, _ := Build(spec, rng)
		x := tensor.RandN(rng, 4, spec.InC, spec.InH, spec.InW)
		labels := make([]int, 4)
		for i := range labels {
			labels[i] = rng.Intn(spec.Classes)
		}
		loss, _ := net.TrainStep(&nn.Batch{X: x, Labels: labels})
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Errorf("%s: train loss = %v", id, loss)
		}
		// Initial loss should be near ln(classes) for random init.
		want := math.Log(float64(spec.Classes))
		if math.Abs(loss-want) > want {
			t.Errorf("%s: initial loss %v too far from ln(C)=%v", id, loss, want)
		}
	}
}

func TestSpecFLOPsMatchBuiltModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, id := range ImageModelIDs {
		spec, _ := SpecFor(id)
		net, _ := Build(spec, rng)
		// Layer FLOPs for ReLU/BN are recorded lazily on forward; run one.
		x := tensor.RandN(rng, 1, spec.InC, spec.InH, spec.InW)
		net.Forward(x, true)
		fromSpec, err := spec.ForwardFLOPs()
		if err != nil {
			t.Fatalf("%s: ForwardFLOPs: %v", id, err)
		}
		fromNet := net.ForwardFLOPs()
		if math.Abs(fromSpec-fromNet)/fromNet > 0.01 {
			t.Errorf("%s: spec FLOPs %v vs built %v", id, fromSpec, fromNet)
		}
	}
}

func TestSpecParamCountMatchesBuiltModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, id := range ImageModelIDs {
		spec, _ := SpecFor(id)
		net, _ := Build(spec, rng)
		fromSpec, err := spec.ParamCount()
		if err != nil {
			t.Fatalf("%s: ParamCount: %v", id, err)
		}
		if fromNet := nn.ParamCount(net); fromSpec != fromNet {
			t.Errorf("%s: spec params %d vs built %d", id, fromSpec, fromNet)
		}
	}
}

func TestSpecCloneIsDeep(t *testing.T) {
	spec := ResNetSpec()
	c := spec.Clone()
	c.Layers[0].Out = 999
	c.Layers[4].Body[0].Out = 999
	if spec.Layers[0].Out == 999 || spec.Layers[4].Body[0].Out == 999 {
		t.Error("Clone is shallow")
	}
}

func TestInvalidSpecsRejected(t *testing.T) {
	cases := []struct {
		name string
		spec *Spec
	}{
		{"no flatten", &Spec{Name: "x", InC: 1, InH: 4, InW: 4, Classes: 2,
			Layers: []LayerSpec{{Kind: KindConv, Name: "c", Out: 2, K: 3, Stride: 1, Pad: 1}}}},
		{"wrong classes", &Spec{Name: "x", InC: 1, InH: 4, InW: 4, Classes: 2,
			Layers: []LayerSpec{{Kind: KindFlatten, Name: "f"}, {Kind: KindDense, Name: "d", Out: 3}}}},
		{"dense before flatten", &Spec{Name: "x", InC: 1, InH: 4, InW: 4, Classes: 2,
			Layers: []LayerSpec{{Kind: KindDense, Name: "d", Out: 2}}}},
		{"pool does not divide", &Spec{Name: "x", InC: 1, InH: 5, InW: 5, Classes: 2,
			Layers: []LayerSpec{{Kind: KindMaxPool, Name: "p", Window: 2},
				{Kind: KindFlatten, Name: "f"}, {Kind: KindDense, Name: "d", Out: 2}}}},
		{"duplicate names", &Spec{Name: "x", InC: 1, InH: 4, InW: 4, Classes: 2,
			Layers: []LayerSpec{{Kind: KindFlatten, Name: "f"},
				{Kind: KindDense, Name: "d", Out: 4}, {Kind: KindDense, Name: "d", Out: 2}}}},
		{"non-preserving residual", &Spec{Name: "x", InC: 2, InH: 4, InW: 4, Classes: 2,
			Layers: []LayerSpec{
				{Kind: KindResidual, Name: "r", Body: []LayerSpec{
					{Kind: KindConv, Name: "r/c", Out: 3, K: 3, Stride: 1, Pad: 1}}},
				{Kind: KindFlatten, Name: "f"}, {Kind: KindDense, Name: "d", Out: 2}}}},
		{"bad input", &Spec{Name: "x", InC: 0, InH: 4, InW: 4, Classes: 2}},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", c.name)
		}
	}
}

func TestBuildLM(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultLMConfig()
	m := BuildLM(cfg, rng)
	seq := make([]int, cfg.SeqLen+1)
	for i := range seq {
		seq[i] = i % cfg.Vocab
	}
	loss, _ := m.Eval(&nn.Batch{Seq: [][]int{seq}})
	want := math.Log(float64(cfg.Vocab))
	if math.Abs(loss-want) > want {
		t.Errorf("LM initial loss %v too far from ln(V)=%v", loss, want)
	}
}

func TestSpecForUnknown(t *testing.T) {
	if _, err := SpecFor("nope"); err == nil {
		t.Error("SpecFor accepted an unknown id")
	}
	if _, err := SpecFor(ModelLSTM); err == nil {
		t.Error("SpecFor should reject the LSTM id (it has no image spec)")
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindConv, KindBatchNorm, KindReLU, KindMaxPool,
		KindGlobalAvgPool, KindFlatten, KindDense, KindResidual, Kind(99)}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("Kind(%d).String() = %q (empty or duplicate)", int(k), s)
		}
		seen[s] = true
	}
}

// TestReshapeFollowsArchitecture: AppendWidths accepts a spec of the same
// architecture — other widths, another input geometry — and refuses one with
// another kernel or another layer chain; a network re-dimensioned to the
// accepted widths has Build's parameter shapes and FLOPs, and refuses widths
// it cannot take: too few, a plane its pooling window does not divide, any
// network with a Dropout layer.
func TestReshapeFollowsArchitecture(t *testing.T) {
	for _, id := range ImageModelIDs {
		arch, err := SpecFor(id)
		if err != nil {
			t.Fatal(err)
		}
		sub := arch.Clone()
		sub.InH, sub.InW = 2*arch.InH, 2*arch.InW
		narrowed := &sub.Layers[0] // the first convolution, or a residual body's
		if id == ModelResNet {
			narrowed = &sub.Layers[4].Body[0]
		}
		narrowed.Out = 3
		widths, ok := sub.AppendWidths(nil, arch)
		if !ok {
			t.Fatalf("%s: a narrower, larger-input spec refused", id)
		}
		net, err := Build(arch, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Build(sub, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !net.Reshape(widths) {
			t.Fatalf("%s: Reshape refused its own architecture's widths", id)
		}
		for i, p := range net.Params() {
			if !tensor.SameShape(p.W, want.Params()[i].W) || !tensor.SameShape(p.Grad, p.W) {
				t.Fatalf("%s %s: W %v, Grad %v, want %v", id, p.Name, p.W.Shape, p.Grad.Shape, want.Params()[i].W.Shape)
			}
		}
		x := tensor.New(1, sub.InC, sub.InH, sub.InW)
		net.Forward(x, false)
		want.Forward(x, false)
		if net.ForwardFLOPs() != want.ForwardFLOPs() {
			t.Errorf("%s: %v FLOPs re-dimensioned, %v built", id, net.ForwardFLOPs(), want.ForwardFLOPs())
		}
		if net.Reshape(widths[:len(widths)-1]) {
			t.Errorf("%s: Reshape took one width too few", id)
		}
		odd := append([]int(nil), widths...)
		odd[1], odd[2] = arch.InH+1, arch.InW+1
		if net.Reshape(odd) {
			t.Errorf("%s: Reshape took a plane the pooling does not divide", id)
		}
		kernel := arch.Clone()
		kernel.Layers[0].K++
		if _, ok := kernel.AppendWidths(nil, arch); ok {
			t.Errorf("%s: a spec with another kernel has its architecture", id)
		}
	}
	if _, ok := AlexNetSpec().AppendWidths(nil, CNNSpec()); ok {
		t.Error("AlexNet has the CNN's architecture")
	}
	drop := dropoutSpec()
	net, err := Build(drop, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if widths, _ := drop.AppendWidths(nil, drop); net.Reshape(widths) {
		t.Error("a network with a Dropout layer was re-dimensioned")
	}
}
