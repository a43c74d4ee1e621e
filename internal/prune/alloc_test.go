//go:build !race

package prune

import (
	"math/rand"
	"testing"

	"fedmp/internal/testfd"
)

// allocTable is prune's allocation inventory: the aggregation, selection and
// quantization kernels the round engine runs per participant or per tensor,
// which must not allocate (testfd.AllocTable runs it).
var allocTable = []testfd.AllocRow{
	{Fns: []any{accumulate, addInto}, Setup: func() func() {
		// A [6, 7, 4] tensor with kept and pruned rows, and kept columns in
		// runs with gaps between them.
		const rows, cols, per = 6, 7, 4
		keptRows, keptCols := []int{0, 2, 3}, []int{1, 2, 5}
		acc, base := values(rows*cols*per), values(rows*cols*per)
		sub := values(len(keptRows) * len(keptCols) * per)
		return func() {
			accumulate(acc, sub, base, cols, per, keptRows, keptCols)
			accumulate(acc, sub[:len(keptRows)*cols], nil, cols, 1, keptRows, nil)
		}
	}},
	{Fns: []any{SelectKth}, Setup: func() func() {
		s := make([]float64, 101)
		for i := range s {
			s[i] = float64((i * 37) % 101)
		}
		return func() { SelectKth(s, 50) }
	}},
	{Fns: []any{SymmetricScale, QuantizeElem}, Setup: func() func() {
		vals := values(64)
		return func() {
			scale, _ := SymmetricScale(vals)
			inv := 1 / float64(scale)
			for _, v := range vals {
				QuantizeElem(v, inv)
			}
		}
	}},
}

func TestAllocTable(t *testing.T) { testfd.AllocTable(t, allocTable) }

// values returns n standard normal float32s.
func values(n int) []float32 {
	rng := rand.New(rand.NewSource(int64(n)))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}
