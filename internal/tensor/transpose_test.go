package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Oracle tests of packTransposed: the blocked transpose, with the avx2 tier's
// 8×8 register kernel under its whole blocks, against the one-float-at-a-time
// definition, by raw bits on every tier.

// packTransposedLoop is the definition: panel[p·w+r] = src[r·ld+p] for
// r < rows, +0 for r ≥ rows.
func packTransposedLoop(panel, src []float32, ld, rows, kb, w int) {
	for p := 0; p < kb; p++ {
		for r := 0; r < w; r++ {
			var v float32
			if r < rows {
				v = src[r*ld+p]
			}
			panel[p*w+r] = v
		}
	}
}

// checkTranspose packs rows runs of kb floats from vals (row stride ld, the
// first at off) into a w-wide panel between two guards, and fails t unless
// the panel is the loop's, bit for bit, and both guards are intact.
func checkTranspose(t *testing.T, tier string, vals []float32, ld, off, rows, kb, w int) {
	t.Helper()
	src := vals[off:]
	if n := min(rows, w); n > 0 {
		src = src[:(n-1)*ld+kb]
	}
	got, arena := guarded(kb * w)
	want := make([]float32, kb*w)
	packTransposed(got, src, ld, rows, kb, w)
	packTransposedLoop(want, src, ld, rows, kb, w)
	what := fmt.Sprintf("%s w=%d rows=%d kb=%d ld=%d off=%d", tier, w, rows, kb, ld, off)
	if i := firstBitDiff(got, want); i >= 0 {
		t.Fatalf("%s: panel[%d] (depth %d, row %d) = %#08x, loop %#08x", what, i, i/w, i%w, math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
	checkGuards(t, what, arena)
}

// TestPackTransposedMatchesLoop: every row count from 0 to 16 (so partial
// blocks read zeroRun), every depth from 0 to kc (so tails past a multiple of
// eight stay in Go), both panel widths the tiers use, a row stride past the
// depth and an unaligned first run; values are raw bit patterns with
// signalling NaNs of several payloads sown in. The panel sits between two
// guards.
func TestPackTransposedMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const maxLD, maxOff = kcGEMM + 7, 3
	vals := make([]float32, 16*maxLD+maxOff)
	for i := range vals {
		vals[i] = math.Float32frombits(rng.Uint32())
	}
	for _, bits := range []uint32{0x7f800001, 0xff80beef, 0x7fa00000, 0xffc12345, 0x80000000} {
		for n := 0; n < 64; n++ {
			vals[rng.Intn(len(vals))] = math.Float32frombits(bits)
		}
	}
	ewTiers(t, func(tier string) {
		for _, w := range []int{8, 16} {
			for rows := 0; rows <= 16; rows++ {
				for kb := 0; kb <= kcGEMM; kb++ {
					checkTranspose(t, tier, vals, kb+kb%8, kb%(maxOff+1), rows, kb, w)
				}
			}
		}
	})
}

// TestTransposeKernelFollowsTheTier: only avx2 has the transpose kernel.
func TestTransposeKernelFollowsTheTier(t *testing.T) {
	for _, k := range kernelTiers {
		if has := k.transpose8x8 != nil; has != (k.name == "avx2") {
			t.Errorf("tier %s: transpose kernel present = %v", k.name, has)
		}
	}
}

// FuzzPackTransposed reads its input's first four bytes as the panel width
// (1–24), the row count (0–24), the depth (0–kc) and the extra row stride and
// offset, and the rest as raw float32 bits, and checks packTransposed on
// every tier against the loop.
func FuzzPackTransposed(f *testing.F) {
	f.Add([]byte{16, 9, 19, 0x21, 0, 0, 0x80, 0x3f, 1, 0, 0x80, 0x7f, 0xef, 0xbe, 0x80, 0xff, 0, 0, 0, 0x80})
	f.Add([]byte{8, 8, 64, 0, 0x45, 0x23, 0xc1, 0x7f, 0, 0, 0xc0, 0xff, 0, 0, 0x80, 0xbf})
	f.Add([]byte{5, 12, 255, 0x13, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		w, rows := 1+int(data[0])%24, int(data[1])%25
		kb := int(data[2]) % (kcGEMM + 1)
		ld, off := kb+int(data[3]&15), int(data[3]>>4)
		data = data[4:]
		vals := make([]float32, off+min(rows, w)*ld+kb)
		for i := range vals {
			j := 4 * (i % (len(data) / 4))
			vals[i] = math.Float32frombits(uint32(data[j]) | uint32(data[j+1])<<8 | uint32(data[j+2])<<16 | uint32(data[j+3])<<24)
		}
		ewTiers(t, func(tier string) { checkTranspose(t, tier, vals, ld, off, rows, kb, w) })
	})
}
