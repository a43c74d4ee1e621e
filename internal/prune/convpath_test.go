package prune

import (
	"fmt"
	"strings"
	"testing"

	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// convPaths is DESIGN.md §2a's table: for every convolution of the zoo, which
// way its products run at pruning ratios 0, 0.2, 0.4, 0.6 and 0.8 on a tier
// with the indirect kernels — I out of the padded sample, d lowered because
// the product is on the direct side of smallGEMMFLOPs, m lowered because the
// map is not whole 8-float runs and 16-column panels (the 4×4 maps; one that
// is also on the direct side reads d).
// The width of the layer and of the one before both shrink with the ratio, so
// a layer drifts towards d; nothing drifts back.
var convPaths = map[zoo.ModelID]string{
	zoo.ModelCNN: `
		conv1 I I d d d
		conv2 I I I I d`,
	zoo.ModelAlexNet: `
		conv1 I I I I d
		conv2 I I I I d
		conv3 m m m d d`,
	zoo.ModelVGG: `
		conv1a d d d d d
		conv1b I I I I d
		conv2a I I d d d
		conv2b I I I d d
		conv3a m m d d d
		conv3b m m m d d`,
	zoo.ModelResNet: `
		stem I I I I d
		block1/conv1 I I I d d
		block1/conv2 I I I d d
		stage2 I I I I d
		block2/conv1 m m m m d
		block2/conv2 m m m m d`,
}

// TestConvPathByRatio pins which convolutions take the indirect path as
// pruning narrows them: the choice follows from geometry alone, so a width
// that crosses smallGEMMFLOPs provably stays with the direct path's sums, and
// a tier without the kernels lowers everything.
func TestConvPathByRatio(t *testing.T) {
	var probe tensor.IndirectConv
	hasKernels := probe.Plan(tensor.ConvGeom{InC: 8, InH: 8, InW: 8, OutC: 16, KH: 5, KW: 5, Stride: 1, Pad: 2})
	for _, id := range zoo.ImageModelIDs {
		spec, ws, _ := buildModel(t, id, 1)
		got := map[string][]string{}
		var order []string
		for _, ratio := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
			plan, err := BuildPlan(spec, ws, ratio)
			if err != nil {
				t.Fatalf("%s at %v: %v", id, ratio, err)
			}
			sub, _, err := Shrink(spec, ws, plan, nil, nil)
			if err != nil {
				t.Fatalf("%s at %v: %v", id, ratio, err)
			}
			err = sub.Walk(func(l *zoo.LayerSpec, _ *zoo.LayerSpec, inC, inH, inW, _ int) error {
				if l.Kind != zoo.KindConv {
					return nil
				}
				g := tensor.ConvGeom{InC: inC, InH: inH, InW: inW, OutC: l.Out, KH: l.K, KW: l.K, Stride: l.Stride, Pad: l.Pad}
				var ic tensor.IndirectConv
				path := "I"
				switch {
				case ic.Plan(g):
				case 2*g.OutC*g.InC*g.KH*g.KW*g.OutH()*g.OutW() < 2*32*32*32:
					path = "d"
				default:
					path = "m"
				}
				if !hasKernels && path == "I" {
					t.Errorf("%s %s at %v: indirect on tier %s, which has no indirect kernels", id, l.Name, ratio, tensor.KernelName())
				}
				if got[l.Name] == nil {
					order = append(order, l.Name)
				}
				got[l.Name] = append(got[l.Name], path)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if !hasKernels {
			continue
		}
		var table []string
		for _, name := range order {
			table = append(table, fmt.Sprintf("%s %s", name, strings.Join(got[name], " ")))
		}
		var want []string
		for _, line := range strings.Split(strings.TrimSpace(convPaths[id]), "\n") {
			want = append(want, strings.TrimSpace(line))
		}
		if g, w := strings.Join(table, "\n"), strings.Join(want, "\n"); g != w {
			t.Errorf("%s on %s:\n%s\nwant\n%s", id, tensor.KernelName(), g, w)
		}
	}
}
