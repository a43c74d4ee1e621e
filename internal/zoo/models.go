package zoo

import (
	"fmt"
	"math/rand"

	"fedmp/internal/nn"
)

// ModelID names one of the experiment architectures.
type ModelID string

// The four image classifiers of the paper's evaluation (scaled; see package
// comment) plus the §VI LSTM language model.
const (
	ModelCNN     ModelID = "cnn"     // paper: CNN on MNIST
	ModelAlexNet ModelID = "alexnet" // paper: AlexNet on CIFAR-10
	ModelVGG     ModelID = "vgg"     // paper: VGG-19 on EMNIST
	ModelResNet  ModelID = "resnet"  // paper: ResNet-50 on Tiny-ImageNet
	ModelLSTM    ModelID = "lstm"    // paper: 2-layer LSTM on Penn TreeBank
)

// ImageModelIDs lists the four image classifiers in paper order.
var ImageModelIDs = []ModelID{ModelCNN, ModelAlexNet, ModelVGG, ModelResNet}

// CNNSpec is the scaled counterpart of the paper's MNIST CNN (two 5×5
// convolutions, one hidden dense layer, softmax), on 1×16×16 inputs.
func CNNSpec() *Spec {
	return &Spec{
		Name: string(ModelCNN), InC: 1, InH: 16, InW: 16, Classes: 10,
		Layers: []LayerSpec{
			{Kind: KindConv, Name: "conv1", Out: 8, K: 5, Stride: 1, Pad: 2},
			{Kind: KindReLU, Name: "relu1"},
			{Kind: KindMaxPool, Name: "pool1", Window: 2},
			{Kind: KindConv, Name: "conv2", Out: 16, K: 5, Stride: 1, Pad: 2},
			{Kind: KindReLU, Name: "relu2"},
			{Kind: KindMaxPool, Name: "pool2", Window: 2},
			{Kind: KindFlatten, Name: "flat"},
			{Kind: KindDense, Name: "fc1", Out: 64},
			{Kind: KindReLU, Name: "relu3"},
			{Kind: KindDense, Name: "out", Out: 10},
		},
	}
}

// AlexNetSpec is the scaled AlexNet analogue: a conv stack with pooling
// followed by a multi-layer dense head, on 3×16×16 inputs (CIFAR-10
// analogue).
func AlexNetSpec() *Spec {
	return &Spec{
		Name: string(ModelAlexNet), InC: 3, InH: 16, InW: 16, Classes: 10,
		Layers: []LayerSpec{
			{Kind: KindConv, Name: "conv1", Out: 16, K: 3, Stride: 1, Pad: 1},
			{Kind: KindReLU, Name: "relu1"},
			{Kind: KindMaxPool, Name: "pool1", Window: 2},
			{Kind: KindConv, Name: "conv2", Out: 32, K: 3, Stride: 1, Pad: 1},
			{Kind: KindReLU, Name: "relu2"},
			{Kind: KindMaxPool, Name: "pool2", Window: 2},
			{Kind: KindConv, Name: "conv3", Out: 32, K: 3, Stride: 1, Pad: 1},
			{Kind: KindReLU, Name: "relu3"},
			{Kind: KindFlatten, Name: "flat"},
			{Kind: KindDense, Name: "fc1", Out: 96},
			{Kind: KindReLU, Name: "relu4"},
			{Kind: KindDense, Name: "fc2", Out: 48},
			{Kind: KindReLU, Name: "relu5"},
			{Kind: KindDense, Name: "out", Out: 10},
		},
	}
}

// VGGSpec is the scaled VGG analogue: paired 3×3 convolutions with batch
// normalisation between pooling stages, on 1×16×16 inputs with 62 classes
// (EMNIST analogue).
func VGGSpec() *Spec {
	return &Spec{
		Name: string(ModelVGG), InC: 1, InH: 16, InW: 16, Classes: 62,
		Layers: []LayerSpec{
			{Kind: KindConv, Name: "conv1a", Out: 8, K: 3, Stride: 1, Pad: 1},
			{Kind: KindBatchNorm, Name: "bn1a"},
			{Kind: KindReLU, Name: "relu1a"},
			{Kind: KindConv, Name: "conv1b", Out: 8, K: 3, Stride: 1, Pad: 1},
			{Kind: KindBatchNorm, Name: "bn1b"},
			{Kind: KindReLU, Name: "relu1b"},
			{Kind: KindMaxPool, Name: "pool1", Window: 2},
			{Kind: KindConv, Name: "conv2a", Out: 16, K: 3, Stride: 1, Pad: 1},
			{Kind: KindBatchNorm, Name: "bn2a"},
			{Kind: KindReLU, Name: "relu2a"},
			{Kind: KindConv, Name: "conv2b", Out: 16, K: 3, Stride: 1, Pad: 1},
			{Kind: KindBatchNorm, Name: "bn2b"},
			{Kind: KindReLU, Name: "relu2b"},
			{Kind: KindMaxPool, Name: "pool2", Window: 2},
			{Kind: KindConv, Name: "conv3a", Out: 32, K: 3, Stride: 1, Pad: 1},
			{Kind: KindBatchNorm, Name: "bn3a"},
			{Kind: KindReLU, Name: "relu3a"},
			{Kind: KindConv, Name: "conv3b", Out: 32, K: 3, Stride: 1, Pad: 1},
			{Kind: KindBatchNorm, Name: "bn3b"},
			{Kind: KindReLU, Name: "relu3b"},
			{Kind: KindMaxPool, Name: "pool3", Window: 2},
			{Kind: KindFlatten, Name: "flat"},
			{Kind: KindDense, Name: "fc1", Out: 96},
			{Kind: KindReLU, Name: "relu4"},
			{Kind: KindDense, Name: "out", Out: 62},
		},
	}
}

// ResNetSpec is the scaled residual-network analogue: a convolutional stem,
// two residual stages with identity skips and a dense head, on 3×16×16
// inputs with 200 classes (Tiny-ImageNet analogue).
//
// The full-size ResNet-50 ends in a 2048-wide global average pool; at this
// scale a GAP head would be a ~48-feature bottleneck where pruning even a
// few channels destroys the 200-way classifier, a failure mode the
// full-width model does not have. The scaled analogue therefore flattens
// the final feature map instead, preserving the relative redundancy the
// pruning experiments rely on (see DESIGN.md §1).
func ResNetSpec() *Spec {
	return &Spec{
		Name: string(ModelResNet), InC: 3, InH: 16, InW: 16, Classes: 200,
		Layers: []LayerSpec{
			{Kind: KindConv, Name: "stem", Out: 16, K: 3, Stride: 1, Pad: 1},
			{Kind: KindBatchNorm, Name: "bn0"},
			{Kind: KindReLU, Name: "relu0"},
			{Kind: KindMaxPool, Name: "pool0", Window: 2},
			{Kind: KindResidual, Name: "block1", Body: []LayerSpec{
				{Kind: KindConv, Name: "block1/conv1", Out: 16, K: 3, Stride: 1, Pad: 1},
				{Kind: KindBatchNorm, Name: "block1/bn1"},
				{Kind: KindReLU, Name: "block1/relu"},
				{Kind: KindConv, Name: "block1/conv2", Out: 16, K: 3, Stride: 1, Pad: 1},
				{Kind: KindBatchNorm, Name: "block1/bn2"},
			}},
			{Kind: KindReLU, Name: "relu1"},
			{Kind: KindConv, Name: "stage2", Out: 48, K: 3, Stride: 1, Pad: 1},
			{Kind: KindBatchNorm, Name: "bn2"},
			{Kind: KindReLU, Name: "relu2"},
			{Kind: KindMaxPool, Name: "pool2", Window: 2},
			{Kind: KindResidual, Name: "block2", Body: []LayerSpec{
				{Kind: KindConv, Name: "block2/conv1", Out: 48, K: 3, Stride: 1, Pad: 1},
				{Kind: KindBatchNorm, Name: "block2/bn1"},
				{Kind: KindReLU, Name: "block2/relu"},
				{Kind: KindConv, Name: "block2/conv2", Out: 48, K: 3, Stride: 1, Pad: 1},
				{Kind: KindBatchNorm, Name: "block2/bn2"},
			}},
			{Kind: KindReLU, Name: "relu3"},
			{Kind: KindFlatten, Name: "flat"},
			{Kind: KindDense, Name: "out", Out: 200},
		},
	}
}

// SpecFor returns the spec for an image model id.
func SpecFor(id ModelID) (*Spec, error) {
	switch id {
	case ModelCNN:
		return CNNSpec(), nil
	case ModelAlexNet:
		return AlexNetSpec(), nil
	case ModelVGG:
		return VGGSpec(), nil
	case ModelResNet:
		return ResNetSpec(), nil
	default:
		return nil, fmt.Errorf("zoo: no image spec for model %q", id)
	}
}

// LMConfig describes the language model of §VI.
type LMConfig struct {
	Vocab, Embed, Hidden, SeqLen int
}

// DefaultLMConfig returns the scaled Penn-TreeBank-analogue configuration.
func DefaultLMConfig() LMConfig {
	return LMConfig{Vocab: 80, Embed: 16, Hidden: 32, SeqLen: 12}
}

// BuildLM constructs the two-layer LSTM language model. A nil rng builds
// zero-initialised parameters (the forget-gate bias aside), as in Build.
func BuildLM(cfg LMConfig, rng *rand.Rand) *nn.LSTMLM {
	return nn.NewLSTMLM(cfg.Vocab, cfg.Embed, cfg.Hidden, cfg.SeqLen, rng)
}
