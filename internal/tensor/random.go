package tensor

import (
	"math"
	"math/rand"
)

// RandN returns a tensor of the given shape filled with N(0,1) samples drawn
// from rng. All randomness in the repository flows through explicitly seeded
// *rand.Rand values so every experiment is reproducible.
func RandN(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// RandUniform returns a tensor with elements drawn uniformly from [lo, hi).
func RandUniform(rng *rand.Rand, lo, hi float32, shape ...int) *Tensor {
	t := New(shape...)
	span := hi - lo
	for i := range t.Data {
		t.Data[i] = lo + span*rng.Float32()
	}
	return t
}

// HeInit returns a tensor initialised with the Kaiming-He normal scheme for
// ReLU networks: N(0, sqrt(2/fanIn)). fanIn must be positive. A nil rng
// yields zeros: the caller is building a network whose weights it will load
// (nn.SetWeights), so drawing an initialisation would be thrown away.
func HeInit(rng *rand.Rand, fanIn int, shape ...int) *Tensor {
	if fanIn <= 0 {
		panic("tensor: HeInit fanIn must be positive")
	}
	t := New(shape...)
	if rng == nil {
		return t
	}
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	for i := range t.Data {
		t.Data[i] = std * float32(rng.NormFloat64())
	}
	return t
}

// XavierInit returns a tensor initialised with the Glorot uniform scheme,
// U(-a, a) with a = sqrt(6/(fanIn+fanOut)). Used for the recurrent and
// embedding layers where He initialisation is too hot. A nil rng yields
// zeros, as in HeInit.
func XavierInit(rng *rand.Rand, fanIn, fanOut int, shape ...int) *Tensor {
	if fanIn <= 0 || fanOut <= 0 {
		panic("tensor: XavierInit fans must be positive")
	}
	if rng == nil {
		return New(shape...)
	}
	a := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	return RandUniform(rng, -a, a, shape...)
}
