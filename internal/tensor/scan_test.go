package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// specialWord returns a float32 drawn to reach every class of input a weight
// scan can meet: random-sign normals, ±0, ±Inf, subnormals and NaNs with
// random payloads and either sign.
func specialWord(rng *rand.Rand) float32 {
	sign := uint32(rng.Intn(2)) << 31
	switch rng.Intn(10) {
	case 0:
		return math.Float32frombits(sign) // ±0
	case 1:
		return math.Float32frombits(sign | 0x7f800000) // ±Inf
	case 2:
		return math.Float32frombits(sign | 0x7f800000 | (1 + uint32(rng.Intn(1<<23-1)))) // NaN
	case 3:
		return math.Float32frombits(sign | (1 + uint32(rng.Intn(1<<23-1)))) // subnormal
	default:
		return float32(rng.NormFloat64())
	}
}

// TestAbsSumRowsMatchesPerRowLoop holds the interleaved scoring kernel to a
// per-row float64 loop, bit for bit: 1–9 rows, so both the four-row body and
// the one-row tail run, lengths 1–2304, every class of float32.
func TestAbsSumRowsMatchesPerRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	widths := []int{1, 2, 3, 7, 8, 9, 63, 64, 65, 576, 2304}
	for i := 0; i < 8; i++ {
		widths = append(widths, 1+rng.Intn(2304))
	}
	for rows := 1; rows <= 9; rows++ {
		for _, width := range widths {
			xs := make([]float32, rows*width)
			for i := range xs {
				xs[i] = specialWord(rng)
			}
			got := make([]float64, rows)
			AbsSumRows(got, xs, width)
			for r := range got {
				var want float64
				for _, v := range xs[r*width : (r+1)*width] {
					want += float64(math.Float32frombits(math.Float32bits(v) &^ (1 << 31)))
				}
				if math.Float64bits(got[r]) != math.Float64bits(want) {
					t.Fatalf("%d rows of %d: row %d sums to %#x, the row loop to %#x",
						rows, width, r, math.Float64bits(got[r]), math.Float64bits(want))
				}
				if one := AbsSumSlice(xs[r*width : (r+1)*width]); math.Float64bits(one) != math.Float64bits(want) {
					t.Fatalf("AbsSumSlice of row %d of %d: %#x, the row loop %#x", r, width, math.Float64bits(one), math.Float64bits(want))
				}
			}
		}
	}
}

// TestNonzeroCountMatchesBitLoop holds NonzeroCount to a scalar bit-pattern
// loop on every tier of this machine, for every length 0–40 (whole blocks of
// eight and every tail) at an unaligned start, with a zero, a negative zero
// and a NaN payload planted at every position of a half-zero background.
func TestNonzeroCountMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	planted := []uint32{0, 0x80000000, 0x7fc00000, 0xffc00001, 0x7f800001, 1}
	active := activeKernel.Load()
	defer activeKernel.Store(active)
	for _, kern := range kernelTiers {
		activeKernel.Store(kern)
		for n := 0; n <= 40; n++ {
			buf := make([]float32, n+1)
			xs := buf[1:]
			for i := range xs {
				if rng.Intn(2) == 0 {
					xs[i] = math.Float32frombits(rng.Uint32() | 1)
				}
			}
			for p := 0; p < n; p++ {
				keep := xs[p]
				for _, w := range planted {
					xs[p] = math.Float32frombits(w)
					want := 0
					for _, v := range xs {
						if math.Float32bits(v) != 0 {
							want++
						}
					}
					if got := NonzeroCount(xs); got != want {
						t.Fatalf("%s: length %d, word %#x at %d: count %d, want %d", kern.name, n, w, p, got, want)
					}
				}
				xs[p] = keep
			}
			if n == 0 && NonzeroCount(xs) != 0 {
				t.Fatalf("%s: empty slice counts nonzero", kern.name)
			}
		}
	}
}
