//go:build !race

package codec

import (
	"testing"

	"fedmp/internal/testfd"
)

// allocTable is the codec's allocation inventory: the per-element loops every
// tensor of every frame runs through, which must not allocate (testfd.AllocTable
// runs it; TestDecoderSteadyStateAllocs and TestWriteFrameSteadyStateAllocs
// hold whole frames to the same bound).
var allocTable = []testfd.AllocRow{
	{Fns: []any{putF32s, getF32s, quantNonzeroCount, popcount}, Setup: func() func() {
		vals := []float32{0, 1.5, -2, 0, 3e-3, 0, -7, 0.25}
		buf := make([]byte, 4*len(vals))
		return func() {
			putF32s(buf, vals)
			getF32s(vals, buf)
			quantNonzeroCount(vals, 127/7.0)
			popcount(buf)
		}
	}},
}

func TestAllocTable(t *testing.T) { testfd.AllocTable(t, allocTable) }
