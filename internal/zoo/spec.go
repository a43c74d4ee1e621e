// Package zoo defines the model architectures used in the experiments and a
// declarative Spec representation the pruning planner and the network
// transport both consume.
//
// The paper evaluates CNN/MNIST, AlexNet/CIFAR-10, VGG-19/EMNIST,
// ResNet-50/Tiny-ImageNet and a 2-layer LSTM/PTB. Those full-size models are
// far beyond a single CPU core, so the zoo provides *scaled* architectures
// with the same structural shape — the same layer families, prunable
// structures (convolution filters, fully connected neurons, residual-block
// inner channels, LSTM hidden units) and relative cost profile. DESIGN.md §1
// documents the substitution.
package zoo

import (
	"fmt"
	"math/rand"
	"slices"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
)

// Kind enumerates the layer families a Spec can contain.
type Kind int

// Layer kinds. Conv and Dense carry learnable parameters and are the
// prunable structures; BatchNorm channels follow their preceding Conv.
const (
	KindConv Kind = iota
	KindBatchNorm
	KindReLU
	KindMaxPool
	KindAvgPool
	KindGlobalAvgPool
	KindFlatten
	KindDense
	KindResidual
	KindDropout
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindConv:
		return "conv"
	case KindBatchNorm:
		return "batchnorm"
	case KindReLU:
		return "relu"
	case KindMaxPool:
		return "maxpool"
	case KindAvgPool:
		return "avgpool"
	case KindDropout:
		return "dropout"
	case KindGlobalAvgPool:
		return "gap"
	case KindFlatten:
		return "flatten"
	case KindDense:
		return "dense"
	case KindResidual:
		return "residual"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// LayerSpec describes one layer of an image classifier.
type LayerSpec struct {
	Kind Kind
	// Name is the unique layer name within the model.
	Name string
	// Out is the number of filters (Conv) or units (Dense).
	Out int
	// K, Stride and Pad give convolution geometry.
	K, Stride, Pad int
	// Window is the pooling window (MaxPool/AvgPool).
	Window int
	// Rate is the drop probability (Dropout).
	Rate float64
	// Body holds the inner layers of a Residual block.
	Body []LayerSpec
}

// Spec describes an image-classifier architecture: the input geometry, the
// number of classes and an ordered layer list. It is pure data — gob-encodable
// for the network transport and trivially rewritable by the pruning planner.
type Spec struct {
	// Name identifies the architecture (e.g. "cnn-mnist").
	Name string
	// InC, InH, InW give the per-sample input geometry.
	InC, InH, InW int
	// Classes is the softmax width. The final Dense layer must have
	// Out == Classes; it is never pruned.
	Classes int
	// Layers is the layer chain.
	Layers []LayerSpec
}

// shapeState tracks per-sample activation geometry during a spec walk.
type shapeState struct {
	c, h, w int
	flat    bool // true once a Flatten has collapsed to [N, D]
	d       int  // width when flat
}

// Walk visits every layer of the spec with resolved input geometry,
// invoking fn with the layer, the enclosing residual block (nil at top
// level) and the input shape. It validates geometry as it goes and returns
// the first error. Both the builder and the pruning planner are written on
// top of Walk so their shape inference can never diverge.
func (s *Spec) Walk(fn func(l *LayerSpec, parent *LayerSpec, inC, inH, inW, inFlat int) error) error {
	st := shapeState{c: s.InC, h: s.InH, w: s.InW}
	if err := walkLayers(s.Layers, nil, &st, fn); err != nil {
		return err
	}
	if !st.flat {
		return fmt.Errorf("zoo: spec %q does not end in a flat layer", s.Name)
	}
	if st.d != s.Classes {
		return fmt.Errorf("zoo: spec %q ends with width %d, want %d classes", s.Name, st.d, s.Classes)
	}
	return nil
}

func walkLayers(layers []LayerSpec, parent *LayerSpec, st *shapeState, fn func(l *LayerSpec, parent *LayerSpec, inC, inH, inW, inFlat int) error) error {
	for i := range layers {
		l := &layers[i]
		inFlat := 0
		if st.flat {
			inFlat = st.d
		}
		if err := fn(l, parent, st.c, st.h, st.w, inFlat); err != nil {
			return err
		}
		switch l.Kind {
		case KindConv:
			if st.flat {
				return fmt.Errorf("zoo: conv %q after flatten", l.Name)
			}
			g := tensor.ConvGeom{InC: st.c, InH: st.h, InW: st.w, OutC: l.Out,
				KH: l.K, KW: l.K, Stride: l.Stride, Pad: l.Pad}
			g.Validate()
			st.c, st.h, st.w = l.Out, g.OutH(), g.OutW()
		case KindBatchNorm, KindReLU:
			// shape preserved
		case KindDropout:
			if l.Rate < 0 || l.Rate >= 1 {
				return fmt.Errorf("zoo: dropout %q rate %v outside [0,1)", l.Name, l.Rate)
			}
		case KindMaxPool, KindAvgPool:
			if st.flat {
				return fmt.Errorf("zoo: pool %q after flatten", l.Name)
			}
			if l.Window <= 0 || st.h%l.Window != 0 || st.w%l.Window != 0 {
				return fmt.Errorf("zoo: pool %q window %d does not divide %dx%d", l.Name, l.Window, st.h, st.w)
			}
			st.h /= l.Window
			st.w /= l.Window
		case KindGlobalAvgPool:
			if st.flat {
				return fmt.Errorf("zoo: gap %q after flatten", l.Name)
			}
			st.flat, st.d = true, st.c
		case KindFlatten:
			if st.flat {
				return fmt.Errorf("zoo: flatten %q after flatten", l.Name)
			}
			st.flat, st.d = true, st.c*st.h*st.w
		case KindDense:
			if !st.flat {
				return fmt.Errorf("zoo: dense %q before flatten", l.Name)
			}
			if l.Out <= 0 {
				return fmt.Errorf("zoo: dense %q with non-positive width %d", l.Name, l.Out)
			}
			st.d = l.Out
		case KindResidual:
			if st.flat {
				return fmt.Errorf("zoo: residual %q after flatten", l.Name)
			}
			if parent != nil {
				return fmt.Errorf("zoo: nested residual %q", l.Name)
			}
			before := *st
			if err := walkLayers(l.Body, l, st, fn); err != nil {
				return err
			}
			if st.flat || st.c != before.c || st.h != before.h || st.w != before.w {
				return fmt.Errorf("zoo: residual %q body is not shape-preserving", l.Name)
			}
		default:
			return fmt.Errorf("zoo: unknown layer kind %v in %q", l.Kind, l.Name)
		}
	}
	return nil
}

// Validate checks the spec's internal consistency.
func (s *Spec) Validate() error {
	if s.InC <= 0 || s.InH <= 0 || s.InW <= 0 {
		return fmt.Errorf("zoo: spec %q has invalid input %dx%dx%d", s.Name, s.InC, s.InH, s.InW)
	}
	if s.Classes <= 1 {
		return fmt.Errorf("zoo: spec %q has %d classes", s.Name, s.Classes)
	}
	// A linear scan over the names seen so far: a model has tens of layers,
	// and a shrunk spec is validated per worker per round without allocating.
	var seen [64]string
	names := seen[:0]
	return s.Walk(func(l *LayerSpec, _ *LayerSpec, _, _, _, _ int) error {
		if l.Name == "" {
			return fmt.Errorf("zoo: unnamed %v layer in %q", l.Kind, s.Name)
		}
		if slices.Contains(names, l.Name) {
			return fmt.Errorf("zoo: duplicate layer name %q in %q", l.Name, s.Name)
		}
		names = append(names, l.Name)
		return nil
	})
}

// Clone deep-copies the spec.
func (s *Spec) Clone() *Spec { return s.CloneInto(nil) }

// CloneInto deep-copies the spec into dst and returns it, reusing dst's layer
// lists, residual bodies included, where they are long enough; a nil dst
// allocates.
func (s *Spec) CloneInto(dst *Spec) *Spec {
	if dst == nil {
		dst = new(Spec)
	}
	layers := dst.Layers
	*dst = *s
	dst.Layers = copyLayers(layers, s.Layers)
	return dst
}

// copyLayers deep-copies src into dst's backing arrays, growing them when
// they are too short.
func copyLayers(dst, src []LayerSpec) []LayerSpec {
	if cap(dst) < len(src) {
		dst = make([]LayerSpec, len(src))
	}
	dst = dst[:len(src)]
	for i := range src {
		body := dst[i].Body
		dst[i] = src[i]
		dst[i].Body = copyLayers(body, src[i].Body)
	}
	return dst
}

// UsesRNG reports whether a network built from the spec keeps drawing from
// its rng after construction — today, whether it has a Dropout layer.
func (s *Spec) UsesRNG() bool { return usesRNG(s.Layers) }

func usesRNG(layers []LayerSpec) bool {
	for i := range layers {
		if layers[i].Kind == KindDropout || usesRNG(layers[i].Body) {
			return true
		}
	}
	return false
}

// AppendWidths appends the widths nn.Sequential.Reshape takes to turn a
// network Build made from a spec of arch's architecture into Build(s) — the
// input geometry, then each layer's Out, depth first — and reports whether s
// has that architecture: the same layer kinds, kernels, strides, padding,
// windows and residual bodies, in the same order. Every sub-model the pruning
// planner cuts from arch does; names are not compared, they label parameters
// and size nothing.
func (s *Spec) AppendWidths(dst []int, arch *Spec) ([]int, bool) {
	return appendWidths(append(dst, s.InC, s.InH, s.InW), s.Layers, arch.Layers)
}

func appendWidths(dst []int, layers, arch []LayerSpec) ([]int, bool) {
	if len(layers) != len(arch) {
		return dst, false
	}
	for i := range layers {
		l, a := &layers[i], &arch[i]
		if l.Kind != a.Kind || l.K != a.K || l.Stride != a.Stride || l.Pad != a.Pad || l.Window != a.Window {
			return dst, false
		}
		var ok bool
		if dst, ok = appendWidths(append(dst, l.Out), l.Body, a.Body); !ok {
			return dst, false
		}
	}
	return dst, true
}

// Build constructs a trainable network from the spec with freshly
// initialised parameters drawn from rng. A nil rng builds zero-initialised
// parameters without seeding or drawing anything, for callers that load the
// weights themselves (nn.SetWeights); a spec that UsesRNG cannot be built
// that way.
func Build(s *Spec, rng *rand.Rand) (*nn.Sequential, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if rng == nil && s.UsesRNG() {
		return nil, fmt.Errorf("zoo: spec %q has a dropout layer and cannot be built without an rng", s.Name)
	}
	var top []nn.Layer
	var resStack []*nn.Residual // at most one deep; Walk forbids nesting
	var resBody []nn.Layer
	err := s.Walk(func(l *LayerSpec, parent *LayerSpec, inC, inH, inW, inFlat int) error {
		var built nn.Layer
		switch l.Kind {
		case KindConv:
			g := tensor.ConvGeom{InC: inC, InH: inH, InW: inW, OutC: l.Out,
				KH: l.K, KW: l.K, Stride: l.Stride, Pad: l.Pad}
			built = nn.NewConv2D(l.Name, g, rng)
		case KindBatchNorm:
			built = nn.NewBatchNorm2D(l.Name, inC)
		case KindReLU:
			built = nn.NewReLU(l.Name)
		case KindMaxPool:
			built = nn.NewMaxPool2D(l.Name, inC, inH, inW, l.Window)
		case KindAvgPool:
			built = nn.NewAvgPool2D(l.Name, inC, inH, inW, l.Window)
		case KindDropout:
			built = nn.NewDropout(l.Name, float32(l.Rate), rng)
		case KindGlobalAvgPool:
			built = nn.NewGlobalAvgPool(l.Name, inC, inH, inW)
		case KindFlatten:
			built = nn.NewFlatten(l.Name, inC*inH*inW)
		case KindDense:
			built = nn.NewDense(l.Name, inFlat, l.Out, rng)
		case KindResidual:
			// Children arrive in subsequent callbacks; collect them.
			resStack = append(resStack, nil) // placeholder marks open block
			resBody = nil
			return nil
		}
		if parent != nil {
			resBody = append(resBody, built)
			// Close the block once the body is complete.
			if &parent.Body[len(parent.Body)-1] == l {
				block := nn.NewResidual(parent.Name, resBody...)
				top = append(top, block)
				resStack = resStack[:len(resStack)-1]
			}
			return nil
		}
		top = append(top, built)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(resStack) != 0 {
		return nil, fmt.Errorf("zoo: spec %q has an empty residual block", s.Name)
	}
	return nn.NewSequential(top...), nil
}

// ForwardFLOPs returns the analytic per-sample forward FLOPs of the spec
// without building parameters. It mirrors the FLOPs the built layers would
// report, which the heterogeneity simulation charges for local training.
func (s *Spec) ForwardFLOPs() (float64, error) {
	var total float64
	err := s.Walk(func(l *LayerSpec, _ *LayerSpec, inC, inH, inW, inFlat int) error {
		switch l.Kind {
		case KindConv:
			g := tensor.ConvGeom{InC: inC, InH: inH, InW: inW, OutC: l.Out,
				KH: l.K, KW: l.K, Stride: l.Stride, Pad: l.Pad}
			total += 2 * float64(l.Out) * float64(g.OutH()) * float64(g.OutW()) *
				float64(inC) * float64(l.K) * float64(l.K)
		case KindBatchNorm:
			total += 4 * float64(inC*inH*inW)
		case KindReLU:
			if inFlat > 0 {
				total += float64(inFlat)
			} else {
				total += float64(inC * inH * inW)
			}
		case KindMaxPool, KindAvgPool, KindGlobalAvgPool:
			total += float64(inC * inH * inW)
		case KindDense:
			total += 2 * float64(inFlat) * float64(l.Out)
		}
		return nil
	})
	return total, err
}

// ParamCount returns the number of scalar parameters the spec implies,
// counting the frozen batch-norm running statistics (they are exchanged
// over the wire like any other parameter, so they count toward model size).
func (s *Spec) ParamCount() (int, error) {
	total := 0
	err := s.Walk(func(l *LayerSpec, _ *LayerSpec, inC, _, _, inFlat int) error {
		switch l.Kind {
		case KindConv:
			total += l.Out*inC*l.K*l.K + l.Out
		case KindBatchNorm:
			total += 4 * inC // gamma, beta, running mean, running variance
		case KindDense:
			total += l.Out*inFlat + l.Out
		}
		return nil
	})
	return total, err
}
