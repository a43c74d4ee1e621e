package tensor

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests of the element-wise passes (elementwise.go): on every
// tier, each function against the Go loop that defines it, by bit pattern.
// Where the loop adds two values that may both be NaN, which payload the sum
// carries depends on the operand order the compiler picks; an instrumented
// build — race detector, coverage, the fuzzer's coverage guidance — may pick
// another than the build the kernels follow, so there a NaN matches any NaN.

// ewLooseNaN reports whether this test binary is instrumented (see above).
func ewLooseNaN() bool {
	fuzz := flag.Lookup("test.fuzz")
	return raceEnabled || testing.CoverMode() != "" || (fuzz != nil && fuzz.Value.String() != "")
}

// ewSGD are the optimiser settings the SGD comparisons run: momentum 0 and
// > 0, weight decay 0, > 0 and < 0. The hyperparameters are never NaN, so
// no product has two NaN operands.
var ewSGD = []struct{ rate, mom, wd float32 }{
	{0.05, 0, 0},
	{0.05, 0.9, 0},
	{0.05, 0, 2e-3},
	{0.05, 0.9, 2e-3},
	{0.5, 0.5, -0.25},
}

// ewGuard is the number of sentinel words behind every output buffer, and
// ewSentinel their bits: a kernel that stores past its length changes them.
const (
	ewGuard    = 9
	ewSentinel = 0x7fa0beef
)

// ewBuf returns a copy of src with ewGuard sentinels behind it.
func ewBuf(src []float32) []float32 {
	buf := make([]float32, len(src)+ewGuard)
	copy(buf, src)
	for i := len(src); i < len(buf); i++ {
		buf[i] = math.Float32frombits(ewSentinel)
	}
	return buf
}

// ewCase runs every element-wise pass on the active tier over operands cut
// from vals (rotations of it where a pass takes several) and returns a
// description of the first result whose bits differ from the Go loop's, or
// "". The max-pool rows and the bias planes are outW wide.
func ewCase(vals []float32, outW int) string {
	n := len(vals)
	rot := func(k int) []float32 {
		r := make([]float32, n)
		for i := range r {
			r[i] = vals[(i+k)%n]
		}
		return r
	}
	loose := ewLooseNaN()
	diff := func(name string, got, want []float32) string {
		i := firstBitDiff(got, want)
		for loose && i >= 0 && got[i] != got[i] && want[i] != want[i] {
			next := firstBitDiff(got[i+1:], want[i+1:])
			if next < 0 {
				return ""
			}
			i += 1 + next
		}
		if i >= 0 {
			return fmt.Sprintf("%s: element %d of %d is %08x, Go loop %08x", name, i, len(got), math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
		return ""
	}
	if n == 0 {
		ReLU(nil, nil)
		ReLUGrad(nil, nil, nil)
		SGDStep(nil, nil, nil, 0.1, 0.9, 0)
		return ""
	}

	got, want := ewBuf(rot(1)), ewBuf(rot(1))
	ReLU(got[:n], vals)
	reluScalar(want[:n], vals)
	if d := diff("ReLU", got, want); d != "" {
		return d
	}
	got, want = ewBuf(vals), ewBuf(vals)
	ReLU(got[:n], got[:n])
	reluScalar(want[:n], want[:n])
	if d := diff("ReLU in place", got, want); d != "" {
		return d
	}

	gated := make([]float32, n)
	reluScalar(gated, rot(2))
	for _, y := range [][]float32{gated, rot(2)} {
		got, want = ewBuf(rot(3)), ewBuf(rot(3))
		ReLUGrad(got[:n], vals, y)
		reluGradScalar(want[:n], vals, y)
		if d := diff("ReLUGrad", got, want); d != "" {
			return d
		}
	}

	if rows := n / (4 * outW); rows > 0 {
		m := rows * outW
		in := vals[:4*m]
		gotOut, wantOut := ewBuf(rot(4)[:m]), ewBuf(rot(4)[:m])
		gotArg, wantArg := make([]int32, m+ewGuard), make([]int32, m+ewGuard)
		for i := range gotArg {
			gotArg[i], wantArg[i] = -7, -7
		}
		MaxPool2x2(gotOut, gotArg, in, rows, outW)
		maxPool2x2Scalar(wantOut, wantArg, in, rows, outW)
		if d := diff(fmt.Sprintf("MaxPool2x2 %d×%d", rows, outW), gotOut, wantOut); d != "" {
			return d
		}
		for i := range gotArg {
			if gotArg[i] != wantArg[i] {
				return fmt.Sprintf("MaxPool2x2 %d×%d: argmax %d is %d, Go loop %d", rows, outW, i, gotArg[i], wantArg[i])
			}
		}
		dy := rot(5)[:m]
		got, want = ewBuf(rot(6)[:4*m]), ewBuf(rot(6)[:4*m])
		MaxPool2x2Grad(got, dy, wantArg, rows, outW)
		maxPool2x2GradScalar(want[:4*m], dy, wantArg)
		if d := diff(fmt.Sprintf("MaxPool2x2Grad %d×%d", rows, outW), got, want); d != "" {
			return d
		}
	}

	area := outW
	if c := n / area; c > 0 {
		bias := rot(7)[:c]
		for i := 3; i < c; i += 4 {
			bias[i] = float32(math.Copysign(0, float64(i%8-4))) // both zeros: skipped
		}
		got, want = ewBuf(vals[:c*area]), ewBuf(vals[:c*area])
		AddBias(got, bias, area)
		addBiasScalar(want, bias, area)
		if d := diff(fmt.Sprintf("AddBias %d×%d", c, area), got, want); d != "" {
			return d
		}
		got, want = ewBuf(rot(8)[:c]), ewBuf(rot(8)[:c])
		AddBiasGrad(got[:c], vals, area)
		addBiasGradScalar(want[:c], vals[:c*area], area)
		if d := diff(fmt.Sprintf("AddBiasGrad %d×%d", c, area), got, want); d != "" {
			return d
		}
	}

	grad := rot(9)
	for _, h := range ewSGD {
		gotW, wantW := ewBuf(vals), ewBuf(vals)
		gotV, wantV := ewBuf(rot(10)), ewBuf(rot(10))
		SGDStep(gotW[:n], grad, gotV[:n], h.rate, h.mom, h.wd)
		sgdStepScalar(wantW[:n], grad, wantV[:n], -h.rate, h.mom, h.wd)
		for _, d := range []string{
			diff(fmt.Sprintf("SGDStep %+v w", h), gotW, wantW),
			diff(fmt.Sprintf("SGDStep %+v v", h), gotV, wantV),
		} {
			if d != "" {
				return d
			}
		}
	}
	return ewLMCase(vals, outW, rot, diff)
}

// ewLMClips are the limits the Clip comparisons run, a NaN among them.
var ewLMClips = []float32{1.5, 0.25, float32(math.Inf(1)), math.Float32frombits(0x7fc12345)}

// ewLMDivisors are the sums the softmax gradient comparisons divide by: a
// plain one and the two a row of infinities or NaNs produces.
var ewLMDivisors = []float64{3.25, math.Inf(1), math.Float64frombits(0x7ff8000000012345)}

// ewLMCase is ewCase for the language model's passes: vals is one LSTM row
// of four gate quarters of len(vals)/4, rows of the dense bias sums outW and
// 32 + outW wide, one Clip, and softmax rows of every prefix of vals.
func ewLMCase(vals []float32, outW int, rot func(int) []float32, diff func(string, []float32, []float32) string) string {
	n := len(vals)
	got, want := ewBuf(rot(1)), ewBuf(rot(1))
	AddTo(got[:n], vals)
	addToScalar(want[:n], vals)
	if d := diff("AddTo", got, want); d != "" {
		return d
	}
	got, want = ewBuf(rot(2)), ewBuf(rot(2))
	SubInto(got[:n], vals, rot(3))
	subIntoScalar(want[:n], vals, rot(3))
	if d := diff("SubInto", got, want); d != "" {
		return d
	}
	SubInto(got[:n], got[:n], vals)
	subIntoScalar(want[:n], want[:n], vals)
	if d := diff("SubInto in place", got, want); d != "" {
		return d
	}

	for _, width := range []int{outW, 32 + outW} {
		if rows := n / width; rows > 0 {
			got, want = ewBuf(rot(4)[:width]), ewBuf(rot(4)[:width])
			AddRowSums(got[:width], vals[:rows*width])
			addRowSumsScalar(want[:width], vals[:rows*width], width)
			if d := diff(fmt.Sprintf("AddRowSums %d×%d", rows, width), got, want); d != "" {
				return d
			}
		}
	}

	got, want = ewBuf(rot(5)), ewBuf(rot(5))
	LSTMCell(got[:n], vals, rot(1), rot(2), rot(3))
	lstmCellScalar(want[:n], vals, rot(1), rot(2), rot(3))
	if d := diff("LSTMCell", got, want); d != "" {
		return d
	}
	got, want = ewBuf(rot(5)), ewBuf(rot(5))
	gotOut, wantOut := ewBuf(rot(6)), ewBuf(rot(6))
	LSTMHidden(got[:n], gotOut[:n], vals, rot(7))
	lstmHiddenScalar(want[:n], wantOut[:n], vals, rot(7))
	if d := diff("LSTMHidden h", got, want) + diff("LSTMHidden out", gotOut, wantOut); d != "" {
		return d
	}
	if h := n / 4; h > 0 {
		gotDZ, wantDZ := ewBuf(rot(8)[:4*h]), ewBuf(rot(8)[:4*h])
		gotDB, wantDB := ewBuf(rot(9)[:4*h]), ewBuf(rot(9)[:4*h])
		gotDC, wantDC := ewBuf(rot(10)[:h]), ewBuf(rot(10)[:h])
		ins := [5][]float32{rot(11)[:h], rot(12)[:h], rot(13)[:h], rot(14)[:h], rot(15)[:h]}
		LSTMGateGrads(gotDZ, gotDB, vals, ins[0], ins[1], ins[2], ins[3], ins[4], gotDC)
		lstmGateGradsScalar(wantDZ[:4*h], wantDB[:4*h], vals[:4*h], ins[0], ins[1], ins[2], ins[3], ins[4], wantDC[:h], 0)
		for _, d := range []string{
			diff(fmt.Sprintf("LSTMGateGrads h=%d dz", h), gotDZ, wantDZ),
			diff(fmt.Sprintf("LSTMGateGrads h=%d db", h), gotDB, wantDB),
			diff(fmt.Sprintf("LSTMGateGrads h=%d dcPrev", h), gotDC, wantDC),
		} {
			if d != "" {
				return d
			}
		}
	}

	for _, limit := range ewLMClips {
		got, want = ewBuf(vals), ewBuf(vals)
		(&Tensor{Data: got[:n]}).Clip(limit)
		clipScalar(want[:n], limit)
		if d := diff(fmt.Sprintf("Clip %v", limit), got, want); d != "" {
			return d
		}
	}

	for m := 1; m <= n; m++ {
		row := vals[:m]
		bi := 0
		for i := 1; i < m; i++ {
			if row[i] > row[bi] {
				bi = i
			}
		}
		if got := ArgMax(row); got != bi {
			return fmt.Sprintf("ArgMax of %d: %d, Go loop %d", m, got, bi)
		}
	}
	if n == 0 {
		return ""
	}
	loose := ewLooseNaN()
	diff64 := func(name string, got, want []float64) string {
		for i := range got {
			g, w := got[i], want[i]
			if math.Float64bits(g) != math.Float64bits(w) && !(loose && g != g && w != w) {
				return fmt.Sprintf("%s: element %d of %d is %016x, Go loop %016x", name, i, len(got), math.Float64bits(g), math.Float64bits(w))
			}
		}
		return ""
	}
	e, eWant := make([]float64, n), make([]float64, n)
	for _, s := range []float32{vals[ArgMax(vals)], 0.75, vals[n/2]} {
		SubWiden(e, vals, s)
		subWidenScalar(eWant, vals, s)
		if d := diff64(fmt.Sprintf("SubWiden %08x", math.Float32bits(s)), e, eWant); d != "" {
			return d
		}
	}
	for i, v := range rot(2) {
		e[i] = float64(v) * 0.3
	}
	for _, div := range ewLMDivisors {
		got, want = ewBuf(rot(3)), ewBuf(rot(3))
		DivNarrowScale(got[:n], e, div, 1.0/96)
		divNarrowScaleScalar(want[:n], e, div, 1.0/96)
		if d := diff(fmt.Sprintf("DivNarrowScale %v", div), got, want); d != "" {
			return d
		}
	}
	return ""
}

// ewTiers calls visit under every tier of this machine.
func ewTiers(t testing.TB, visit func(tier string)) {
	t.Helper()
	defer func(name string) {
		if err := ForceKernel(name); err != nil {
			t.Fatal(err)
		}
	}(KernelName())
	for _, tier := range Kernels() {
		if err := ForceKernel(tier); err != nil {
			t.Fatal(err)
		}
		visit(tier)
	}
}

// ewSpecials are the inputs where a lane could part from the loop: both
// zeros, subnormals, infinities, quiet and signalling NaNs of both signs and
// several payloads, and the largest finite values.
var ewSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x80000001),
	math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
	math.Float32frombits(0x7f800001), math.Float32frombits(0xff800001),
	math.Float32frombits(0x7fc12345), math.Float32frombits(0xffd54321),
	math.MaxFloat32, -math.MaxFloat32,
}

// ewValues returns n inputs of one of three kinds: plain normal values;
// normal values with a special in about one of three; or few distinct
// values (signed zeros, ±1, 2, a NaN, +Inf), so that pool windows tie.
func ewValues(rng *rand.Rand, n, kind int) []float32 {
	ties := []float32{0, float32(math.Copysign(0, -1)), 1, -1, 2, math.Float32frombits(0x7fc00001), float32(math.Inf(1))}
	v := make([]float32, n)
	for i := range v {
		switch {
		case kind == 2:
			v[i] = ties[rng.Intn(len(ties))]
		case kind == 1 && rng.Intn(3) == 0:
			v[i] = ewSpecials[rng.Intn(len(ewSpecials))]
		default:
			v[i] = float32(rng.NormFloat64())
		}
	}
	return v
}

// TestElementwiseKernelsMatchScalarLoops runs every length 0–70 from every
// start offset 0–7 within one allocation, in all three kinds of input, with
// pool rows and bias planes of a width that moves with the length (every
// remainder mod 8 turns up) and of the CNN's widths 4 and 8, then the CNN's
// own sizes.
func TestElementwiseKernelsMatchScalarLoops(t *testing.T) {
	ewTiers(t, func(tier string) {
		rng := rand.New(rand.NewSource(391))
		for n := 0; n <= 70; n++ {
			for off := 0; off < 8; off++ {
				for kind := 0; kind < 3; kind++ {
					vals := append(make([]float32, off), ewValues(rng, n, kind)...)[off:]
					for _, outW := range []int{1 + (7*n+off)%17, 4, 8} {
						if d := ewCase(vals, outW); d != "" {
							t.Fatalf("%s n=%d off=%d kind=%d width=%d: %s", tier, n, off, kind, outW, d)
						}
					}
				}
			}
		}
		// conv1 and conv2 of the CNN at batch 2: 8 planes of 16×16 and 16 of
		// 8×8; an LSTM row at h = 32 and at the pruned h = 19, the head's
		// rows of 80 words.
		for _, c := range []struct{ n, outW int }{{2 * 8 * 256, 8}, {2 * 16 * 64, 4}, {2*16*64 + 5, 8},
			{4 * 32, 80}, {4 * 19, 19}, {4*19 + 3, 80}} {
			for kind := 0; kind < 3; kind++ {
				if d := ewCase(ewValues(rng, c.n, kind), c.outW); d != "" {
					t.Fatalf("%s n=%d kind=%d width=%d: %s", tier, c.n, kind, c.outW, d)
				}
			}
		}
	})
}

// TestElementwiseKernelsOnSpecials puts every special through every lane
// position of a vector among plain values, with every other special in the
// same lane of the next vector (the two-NaN adds), at the widths the kernels
// take: pool rows and bias planes of 8, pool rows of 4 in pairs.
func TestElementwiseKernelsOnSpecials(t *testing.T) {
	ewTiers(t, func(tier string) {
		for _, a := range ewSpecials {
			for _, b := range ewSpecials {
				for lane := 0; lane < 8; lane++ {
					vals := make([]float32, 75)
					for i := range vals {
						vals[i] = 0.25 * float32(i%7-3)
					}
					vals[lane], vals[lane+8], vals[lane+33] = a, b, a
					for _, outW := range []int{8, 4} {
						if d := ewCase(vals, outW); d != "" {
							t.Fatalf("%s %08x beside %08x in lane %d, width %d: %s", tier, math.Float32bits(a), math.Float32bits(b), lane, outW, d)
						}
					}
				}
			}
		}
	})
}

// TestElementwiseKernelsFollowTheTier pins which tiers have the kernels: all
// seventeen on avx2, none anywhere else, so FEDMP_KERNEL=generic or sse runs the
// Go loops.
func TestElementwiseKernelsFollowTheTier(t *testing.T) {
	for _, k := range kernelTiers {
		has := []bool{k.relu != nil, k.reluGrad != nil, k.maxPool2x2 != nil, k.maxPool2x2Grad != nil,
			k.addBias != nil, k.addBiasGrad != nil, k.sgdStep != nil,
			k.addTo != nil, k.subInto != nil, k.addRowSums != nil, k.lstmCell != nil, k.lstmHidden != nil,
			k.lstmGateGrads != nil, k.clip != nil, k.argMax != nil, k.subWiden != nil, k.divNarrowScale != nil}
		for i, h := range has {
			if h != (k.name == "avx2") {
				t.Errorf("tier %s: element-wise kernel %d present = %v", k.name, i, h)
			}
		}
	}
}

// FuzzElementwise reads its input's first byte as the pool and bias width and
// the rest as raw float32 bits, and checks every element-wise pass on every
// tier against its Go loop.
func FuzzElementwise(f *testing.F) {
	f.Add([]byte{7, 0, 0, 0x80, 0x3f, 0, 0, 0x80, 0x3f, 0, 0, 0, 0x80, 0, 0, 0xc0, 0x7f, 1, 0, 0x80, 0x7f,
		0, 0, 0x80, 0xff, 1, 0, 0, 0, 0x5e, 0x0f, 0x30, 0xc2, 0, 0, 0x80, 0x3f})
	f.Add([]byte("\x03\x00\x00\x00\x40\x00\x00\x00\x40\xff\xff\xff\x7f\x00\x00\x00\x00\xcd\xcc\x4c\x3e\x01\x00\xc0\xff\x00\x00\x80\xbf"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		outW := 1 + int(data[0])%20
		data = data[1:]
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(uint32(data[4*i]) | uint32(data[4*i+1])<<8 | uint32(data[4*i+2])<<16 | uint32(data[4*i+3])<<24)
		}
		ewTiers(t, func(tier string) {
			if d := ewCase(vals, outW); d != "" {
				t.Fatalf("%s width=%d: %s", tier, outW, d)
			}
		})
	})
}

// BenchmarkElementwise times each pass on the active tier and on generic (the
// Go loops) at sim-cnn30's shapes, batch 8: conv1's output (8 planes of
// 16×16, pooled in rows of 8 windows) and conv2's (16 planes of 8×8, rows of
// 4), and the CNN's parameters for SGD.
func BenchmarkElementwise(b *testing.B) {
	rng := rand.New(rand.NewSource(392))
	for _, s := range []struct {
		name        string
		c, area, ow int
	}{{"conv1", 8, 256, 8}, {"conv2", 16, 64, 4}} {
		n := 8 * s.c * s.area
		x, y, dx := RandN(rng, n).Data, make([]float32, n), make([]float32, n)
		out, arg := make([]float32, n/4), make([]int32, n/4)
		db := make([]float32, s.c)
		rows := n / (4 * s.ow)
		for _, pass := range []struct {
			name string
			run  func()
		}{
			{"relu", func() { ReLU(y, x) }},
			{"relu-grad", func() { ReLUGrad(dx, x, y) }},
			{"maxpool", func() { MaxPool2x2(out, arg, x, rows, s.ow) }},
			{"maxpool-grad", func() { MaxPool2x2Grad(dx, out, arg, rows, s.ow) }},
			{"bias", func() {
				for i := 0; i < 8; i++ {
					AddBias(y[i*s.c*s.area:], db, s.area)
				}
			}},
			{"bias-grad", func() {
				for i := 0; i < 8; i++ {
					AddBiasGrad(db, x[i*s.c*s.area:], s.area)
				}
			}},
		} {
			for _, tier := range []string{"generic", KernelName()} {
				b.Run(s.name+"/"+pass.name+"/"+tier, func(b *testing.B) {
					forceKernel(b, tier)
					ReLU(y, x)
					MaxPool2x2(out, arg, x, rows, s.ow)
					for i := range db {
						db[i] = 0.5
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						pass.run()
					}
				})
			}
		}
	}
	var w, g, v []float32
	for _, size := range []int{8 * 25, 8, 16 * 8 * 25, 16, 64 * 256, 64, 10 * 64, 10} {
		w, g, v = append(w, RandN(rng, size).Data...), append(g, RandN(rng, size).Data...), append(v, make([]float32, size)...)
	}
	for _, tier := range []string{"generic", KernelName()} {
		b.Run("sgd/"+tier, func(b *testing.B) {
			forceKernel(b, tier)
			for i := 0; i < b.N; i++ {
				SGDStep(w, g, v, 0.05, 0.9, 2e-3)
			}
		})
	}
}
