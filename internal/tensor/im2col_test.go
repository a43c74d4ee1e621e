package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvGeomOutputDims(t *testing.T) {
	cases := []struct {
		g          ConvGeom
		outH, outW int
	}{
		{ConvGeom{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 0}, 3, 3},
		{ConvGeom{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: 1}, 5, 5},
		{ConvGeom{InC: 3, InH: 8, InW: 8, KH: 2, KW: 2, Stride: 2, Pad: 0}, 4, 4},
		{ConvGeom{InC: 1, InH: 7, InW: 9, KH: 3, KW: 3, Stride: 2, Pad: 1}, 4, 5},
	}
	for _, c := range cases {
		if c.g.OutH() != c.outH || c.g.OutW() != c.outW {
			t.Errorf("geom %+v: out %dx%d, want %dx%d", c.g, c.g.OutH(), c.g.OutW(), c.outH, c.outW)
		}
	}
}

func TestConvGeomValidatePanics(t *testing.T) {
	bad := []ConvGeom{
		{InC: 0, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1},
		{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, Stride: 1}, // empty output
		{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 0},
		{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, Stride: 1, Pad: -1},
	}
	for i, g := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: Validate did not panic for %+v", i, g)
				}
			}()
			g.Validate()
		}()
	}
}

// naiveConv computes a direct convolution of x with a single-row kernel
// matrix to cross-check the im2col lowering.
func naiveConv(x []float32, g ConvGeom, w []float32) []float32 {
	outH, outW := g.OutH(), g.OutW()
	out := make([]float32, outH*outW)
	for oh := 0; oh < outH; oh++ {
		for ow := 0; ow < outW; ow++ {
			var s float32
			for c := 0; c < g.InC; c++ {
				for kh := 0; kh < g.KH; kh++ {
					for kw := 0; kw < g.KW; kw++ {
						ih := oh*g.Stride - g.Pad + kh
						iw := ow*g.Stride - g.Pad + kw
						if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
							continue
						}
						s += x[(c*g.InH+ih)*g.InW+iw] * w[(c*g.KH+kh)*g.KW+kw]
					}
				}
			}
			out[oh*outW+ow] = s
		}
	}
	return out
}

func TestIm2ColMatchesDirectConv(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	geoms := []ConvGeom{
		{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, Stride: 1, Pad: 0},
		{InC: 2, InH: 5, InW: 7, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{InC: 3, InH: 8, InW: 8, KH: 5, KW: 5, Stride: 2, Pad: 2},
		{InC: 1, InH: 4, InW: 4, KH: 1, KW: 1, Stride: 1, Pad: 0},
	}
	for _, g := range geoms {
		g.Validate()
		x := RandN(rng, g.InC*g.InH*g.InW).Data
		w := RandN(rng, g.InC*g.KH*g.KW).Data
		cols := make([]float32, g.InC*g.KH*g.KW*g.OutH()*g.OutW())
		Im2Col(x, g, cols)
		wt := FromSlice(w, 1, len(w))
		ct := FromSlice(cols, len(w), g.OutH()*g.OutW())
		got := MatMul(wt, ct)
		want := naiveConv(x, g, w)
		for i := range want {
			d := got.Data[i] - want[i]
			if d < 0 {
				d = -d
			}
			if d > 1e-4 {
				t.Fatalf("geom %+v: im2col conv mismatch at %d: %v vs %v", g, i, got.Data[i], want[i])
			}
		}
	}
}

// Property: Col2Im is the adjoint of Im2Col, i.e. for random x and y,
// <Im2Col(x), y> == <x, Col2Im(y)>. This is exactly the identity backprop
// correctness depends on. Every drawn geometry is checked at stride 1 (whose
// rows are copied) and stride 2 (whose rows are gathered), with kernels up
// to 5 and padding up to 2 so whole taps can fall into the padding.
func TestCol2ImAdjointProperty(t *testing.T) {
	adjoint := func(r *rand.Rand, g ConvGeom) bool {
		colSize := g.InC * g.KH * g.KW * g.OutH() * g.OutW()
		x := RandN(r, g.InC*g.InH*g.InW)
		y := RandN(r, colSize)
		cols := make([]float32, colSize)
		Im2Col(x.Data, g, cols)
		var lhs float64
		for i := range cols {
			lhs += float64(cols[i]) * float64(y.Data[i])
		}
		dx := make([]float32, x.Size())
		Col2Im(y.Data, g, dx)
		var rhs float64
		for i := range dx {
			rhs += float64(dx[i]) * float64(x.Data[i])
		}
		return math.Abs(lhs-rhs)/math.Max(1, math.Abs(lhs)) < 1e-3
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := ConvGeom{
			InC: 1 + r.Intn(3),
			InH: 3 + r.Intn(5),
			InW: 3 + r.Intn(5),
			KH:  1 + r.Intn(5),
			KW:  1 + r.Intn(5),
			Pad: r.Intn(3),
		}
		if g.InH+2*g.Pad < g.KH || g.InW+2*g.Pad < g.KW {
			return true // degenerate; skip
		}
		for g.Stride = 1; g.Stride <= 2; g.Stride++ {
			if !adjoint(r, g) {
				t.Logf("adjoint identity fails for %+v", g)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIm2ColLengthPanics(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 0}
	x := make([]float32, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("Im2Col with wrong cols length did not panic")
		}
	}()
	Im2Col(x, g, make([]float32, 5))
}
