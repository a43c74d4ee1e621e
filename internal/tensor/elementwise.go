package tensor

import "math"

// The element-wise passes of a convolutional train step: ReLU and its
// gradient, the 2×2 max-pool and its gradient, the convolution's bias add and
// bias-gradient sums, and the SGD update. Each has one definition, the Go loop
// below it; a tier with a kernel for it (kernel.go) computes the same bits
// eight elements at a time, over whole vectors, and leaves the rest to the
// loop. Where an add has two operands that can both be NaN, the kernel keeps
// the operand order the compiler gives the loop, so even the payload of the
// result is the loop's.

// ReLU sets dst[i] to src[i] where src[i] > 0 and to +0 elsewhere: a NaN or a
// −0 becomes +0. dst must be at least as long as src, and either the same
// slice or disjoint from it.
func ReLU(dst, src []float32) {
	dst = dst[:len(src)]
	if fn := activeKernel.Load().relu; fn != nil && len(src) >= 8 {
		whole := len(src) &^ 7
		fn(&dst[0], &src[0], uintptr(whole))
		dst, src = dst[whole:], src[whole:]
	}
	reluScalar(dst, src)
}

// reluScalar computes the gate on the bit pattern, so the loop has no
// data-dependent branch: with i the int32 view of x, x > 0 holds exactly for
// 0 < i ≤ 0x7F800000 (+Inf); −i has its sign bit set for i > 0 (and for −0,
// which the second term rejects), i − 0x7F800001 has it set up to +Inf but
// not for the positive NaNs above it, and it wraps to a clear sign bit for
// every negative i below −0x7FFFFF.
func reluScalar(dst, src []float32) {
	dst = dst[:len(src)]
	for j, v := range src {
		i := int32(math.Float32bits(v))
		keep := uint32((-i & (i - 0x7F800001)) >> 31)
		dst[j] = math.Float32frombits(uint32(i) & keep)
	}
}

// ReLUGrad sets dx[i] to dy[i] where the bits of y[i] are not all zero and to
// +0 where they are. y is ReLU's output: +0 where the input was not positive
// and a positive value (possibly +Inf, never NaN or −0) where it was, so no
// mask need be stored. dx and y must be at least as long as dy.
func ReLUGrad(dx, dy, y []float32) {
	dx, y = dx[:len(dy)], y[:len(dy)]
	if fn := activeKernel.Load().reluGrad; fn != nil && len(dy) >= 8 {
		whole := len(dy) &^ 7
		fn(&dx[0], &dy[0], &y[0], uintptr(whole))
		dx, dy, y = dx[whole:], dy[whole:], y[whole:]
	}
	reluGradScalar(dx, dy, y)
}

func reluGradScalar(dx, dy, y []float32) {
	dx, y = dx[:len(dy)], y[:len(dy)]
	for j, v := range dy {
		b := int32(math.Float32bits(y[j]))
		dx[j] = math.Float32frombits(math.Float32bits(v) & uint32((b|-b)>>31))
	}
}

// MaxPool2x2 pools rows of 2×2 windows: output row r (outW values) is the
// maximum of each window of input rows 2r and 2r+1, each 2·outW values long.
// A batch of planes is one call with rows = planes·outH, since the
// planes' rows follow one another. arg[i] receives the flat input index of
// out[i]. The four candidates are compared in scan order (top-left,
// top-right, bottom-left, bottom-right) with a strict >, so a tie keeps the
// first and a NaN wins only from the top-left. The kernel takes rows of whole
// vectors of windows, or pairs of rows of four.
func MaxPool2x2(out []float32, arg []int32, in []float32, rows, outW int) {
	if outW <= 0 || rows <= 0 {
		return
	}
	out, arg, in = out[:rows*outW], arg[:rows*outW], in[:4*rows*outW]
	if fn := activeKernel.Load().maxPool2x2; fn != nil && poolBlocks(rows, outW) {
		fn(&out[0], &arg[0], &in[0], uintptr(rows), uintptr(outW))
		return
	}
	maxPool2x2Scalar(out, arg, in, rows, outW)
}

// maxPool2x2Scalar carries only the winning index forward, moved by a mask
// built from each compare instead of by a jump: the outcome of a compare is
// close to a coin flip, and a mispredicted branch costs more than the window.
func maxPool2x2Scalar(out []float32, arg []int32, in []float32, rows, outW int) {
	inW := 2 * outW
	for r := 0; r < rows; r++ {
		o := out[r*outW:][:outW]
		a := arg[r*outW:][:outW]
		for ow := range o {
			i0 := 2*r*inW + 2*ow
			bi := i0 + b2i(in[i0+1] > in[i0])
			bi += -b2i(in[i0+inW] > in[bi]) & (i0 + inW - bi)
			bi += -b2i(in[i0+inW+1] > in[bi]) & (i0 + inW + 1 - bi)
			o[ow] = in[bi]
			a[ow] = int32(bi)
		}
	}
}

// poolBlocks reports whether the pooling kernels take this geometry: their
// blocks of eight windows are one row's or, with rows of four, two rows'.
func poolBlocks(rows, outW int) bool {
	return outW%8 == 0 || outW == 4 && rows%2 == 0
}

// b2i is 1 when b holds and 0 otherwise; the compiler lowers it to a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// MaxPool2x2Grad is MaxPool2x2's input gradient: every element of dx (2·rows
// rows of 2·outW) becomes +0 except each window's recorded maximum, which
// becomes 0 + dy. arg must be what MaxPool2x2 recorded for the same
// geometry.
func MaxPool2x2Grad(dx, dy []float32, arg []int32, rows, outW int) {
	if outW <= 0 || rows <= 0 {
		return
	}
	dx, dy, arg = dx[:4*rows*outW], dy[:rows*outW], arg[:rows*outW]
	if fn := activeKernel.Load().maxPool2x2Grad; fn != nil && poolBlocks(rows, outW) {
		fn(&dx[0], &dy[0], &arg[0], uintptr(rows), uintptr(outW))
		return
	}
	maxPool2x2GradScalar(dx, dy, arg)
}

// maxPool2x2GradScalar zeroes dx and adds each dy into its window's maximum;
// the kernel writes every window in place instead, with the same 0 + dy.
func maxPool2x2GradScalar(dx, dy []float32, arg []int32) {
	clear(dx)
	for oi, v := range dy {
		dx[arg[oi]] += v
	}
}

// AddBias adds bias[c] to every element of plane c of y, the planes being
// area values long and one per bias. A zero bias leaves its plane alone: even
// +0 would turn a −0 into +0. The kernel takes planes of whole vectors.
func AddBias(y, bias []float32, area int) {
	if len(bias) == 0 || area <= 0 {
		return
	}
	y = y[:len(bias)*area]
	if fn := activeKernel.Load().addBias; fn != nil && area%8 == 0 {
		fn(&y[0], &bias[0], uintptr(len(bias)), uintptr(area))
		return
	}
	addBiasScalar(y, bias, area)
}

func addBiasScalar(y, bias []float32, area int) {
	for c, b := range bias {
		if b == 0 {
			continue
		}
		plane := y[c*area : (c+1)*area]
		for j := range plane {
			plane[j] += b
		}
	}
}

// AddBiasGrad adds to db[c] the sum of plane c of dy, summed from +0 in
// index order. The kernel gives each channel a lane, so every sum still runs
// in that order; it takes planes of whole vectors.
func AddBiasGrad(db, dy []float32, area int) {
	if len(db) == 0 || area <= 0 {
		return
	}
	dy = dy[:len(db)*area]
	if fn := activeKernel.Load().addBiasGrad; fn != nil && area%8 == 0 {
		fn(&db[0], &dy[0], uintptr(len(db)), uintptr(area))
		return
	}
	addBiasGradScalar(db, dy, area)
}

func addBiasGradScalar(db, dy []float32, area int) {
	for c := range db {
		var s float32
		for _, v := range dy[c*area : (c+1)*area] {
			s += v
		}
		db[c] += s
	}
}

// SGDStep applies one momentum SGD update to w from its gradient:
//
//	g ← grad + wd·w        (the product only when wd ≠ 0)
//	v ← float32(mom·v) + g (only when mom > 0; else v is unused and may be nil)
//	w ← w + (−rate)·v      (g in place of v when mom ≤ 0)
//
// Every product is rounded before its add — the conversions say so, so a
// compiler that fuses multiply-adds (GOAMD64=v3, arm64) computes the same
// bits as the kernel's separate multiplies and adds. grad is left untouched.
func SGDStep(w, grad, v []float32, rate, mom, wd float32) {
	grad = grad[:len(w)]
	if mom > 0 {
		v = v[:len(w)]
	}
	if fn := activeKernel.Load().sgdStep; fn != nil && len(w) >= 8 {
		whole := len(w) &^ 7
		var vp *float32
		if mom > 0 {
			vp = &v[0]
			v = v[whole:]
		}
		fn(&w[0], &grad[0], vp, uintptr(whole), -rate, mom, wd)
		w, grad = w[whole:], grad[whole:]
	}
	sgdStepScalar(w, grad, v, -rate, mom, wd)
}

func sgdStepScalar(w, grad, v []float32, lr, mom, wd float32) {
	grad = grad[:len(w)]
	if mom <= 0 {
		for j, g := range grad {
			if wd != 0 {
				g += float32(wd * w[j])
			}
			w[j] += float32(lr * g)
		}
		return
	}
	v = v[:len(w)]
	for j, g := range grad {
		if wd != 0 {
			g += float32(wd * w[j])
		}
		vj := float32(v[j]*mom) + g
		v[j] = vj
		w[j] += float32(lr * vj)
	}
}

// The element-wise passes of the language model's train step follow the same
// rule: the LSTM's cell update, hidden product and gate gradients, the dense
// head's bias add and bias-gradient sums, and the softmax head's widening and
// gradient (ArgMax and Clip, in ops.go, too). AddTo and SubInto also serve the
// server's per-device passes. Every product that meets an add is converted
// to float32 before it, so a compiler that fuses multiply-adds computes the
// kernels' bits as well.

// AddTo adds src to dst element by element: dst[i] + src[i], dst first.
func AddTo(dst, src []float32) {
	src = src[:len(dst)]
	if fn := activeKernel.Load().addTo; fn != nil && len(dst) >= 8 {
		whole := len(dst) &^ 7
		fn(&dst[0], &src[0], uintptr(whole))
		dst, src = dst[whole:], src[whole:]
	}
	addToScalar(dst, src)
}

func addToScalar(dst, src []float32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}

// SubInto sets dst[i] to a[i] − b[i]. dst may be a or b.
func SubInto(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	if fn := activeKernel.Load().subInto; fn != nil && len(dst) >= 8 {
		whole := len(dst) &^ 7
		fn(&dst[0], &a[0], &b[0], uintptr(whole))
		dst, a, b = dst[whole:], a[whole:], b[whole:]
	}
	subIntoScalar(dst, a, b)
}

func subIntoScalar(dst, a, b []float32) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// AddRowSums adds to dst[j] element j of every row of rows, a whole number
// of rows len(dst) long, one add per row in ascending order: a dense layer's
// bias gradient. The kernel gives each column a lane, so every column still
// sums in that order; it takes the whole vectors of a row.
func AddRowSums(dst, rows []float32) {
	width := len(dst)
	if width == 0 || len(rows) < width {
		return
	}
	rows = rows[:len(rows)/width*width]
	if fn := activeKernel.Load().addRowSums; fn != nil && width >= 8 {
		whole := width &^ 7
		fn(&dst[0], &rows[0], uintptr(whole), uintptr(width), uintptr(len(rows)/width))
		if whole == width {
			return
		}
		dst, rows = dst[whole:], rows[whole:]
	}
	addRowSumsScalar(dst, rows, width)
}

// addRowSumsScalar adds every row of rows (width apart) to dst, whose length
// may be less than width.
func addRowSumsScalar(dst, rows []float32, width int) {
	for r := 0; r < len(rows); r += width {
		row := rows[r:][:len(dst)]
		for j, v := range row {
			dst[j] += v
		}
	}
}

// LSTMCell sets c to the LSTM cell update f·cPrev + i·g, each product
// rounded before the add.
func LSTMCell(c, f, cPrev, i, g []float32) {
	f, cPrev, i, g = f[:len(c)], cPrev[:len(c)], i[:len(c)], g[:len(c)]
	if fn := activeKernel.Load().lstmCell; fn != nil && len(c) >= 8 {
		whole := len(c) &^ 7
		fn(&c[0], &f[0], &cPrev[0], &i[0], &g[0], uintptr(whole))
		c, f, cPrev, i, g = c[whole:], f[whole:], cPrev[whole:], i[whole:], g[whole:]
	}
	lstmCellScalar(c, f, cPrev, i, g)
}

// lstmCellScalar is not inlined: where a NaN meets a NaN, which one the
// result carries depends on the operand order the compiler picks, and a
// single compiled copy keeps that order the one the kernel repeats.
//
//go:noinline
func lstmCellScalar(c, f, cPrev, i, g []float32) {
	f, cPrev, i, g = f[:len(c)], cPrev[:len(c)], i[:len(c)], g[:len(c)]
	for k := range c {
		c[k] = float32(f[k]*cPrev[k]) + float32(i[k]*g[k])
	}
}

// LSTMHidden sets both h and out to the LSTM hidden state o·tc.
func LSTMHidden(h, out, o, tc []float32) {
	out, o, tc = out[:len(h)], o[:len(h)], tc[:len(h)]
	if fn := activeKernel.Load().lstmHidden; fn != nil && len(h) >= 8 {
		whole := len(h) &^ 7
		fn(&h[0], &out[0], &o[0], &tc[0], uintptr(whole))
		h, out, o, tc = h[whole:], out[whole:], o[whole:], tc[whole:]
	}
	lstmHiddenScalar(h, out, o, tc)
}

func lstmHiddenScalar(h, out, o, tc []float32) {
	out, o, tc = out[:len(h)], o[:len(h)], tc[:len(h)]
	for k, og := range o {
		hv := og * tc[k]
		h[k] = hv
		out[k] = hv
	}
}

// LSTMGateGrads is one batch row of an LSTM timestep's backward pass. gates
// holds the row's activations i, f, g and o, and dz and db are laid out the
// same way: four quarters of h = len(dout). From the output gradient dout,
// the gradients dhNext and dcNext arriving from the next timestep, tanh of
// the cell tanhC and the previous cell cPrev it sets
//
//	dh  = dout + dhNext
//	dc  = dcNext + dh·o·(1 − tanhC²)
//	dz  = dc·g·i·(1 − i), dc·cPrev·f·(1 − f), dc·i·(1 − g²), dh·tanhC·o·(1 − o)
//	db += dz
//	dcPrev = dc·f
//
// with the products associated left to right, as written.
func LSTMGateGrads(dz, db, gates, dout, dhNext, dcNext, tanhC, cPrev, dcPrev []float32) {
	h := len(dout)
	dz, db, gates = dz[:4*h], db[:4*h], gates[:4*h]
	dhNext, dcNext, tanhC, cPrev, dcPrev = dhNext[:h], dcNext[:h], tanhC[:h], cPrev[:h], dcPrev[:h]
	from := 0
	if fn := activeKernel.Load().lstmGateGrads; fn != nil && h >= 8 {
		from = h &^ 7
		fn(&dz[0], &db[0], &gates[0], &dout[0], &dhNext[0], &dcNext[0], &tanhC[0], &cPrev[0], &dcPrev[0], uintptr(h), uintptr(from))
	}
	lstmGateGradsScalar(dz, db, gates, dout, dhNext, dcNext, tanhC, cPrev, dcPrev, from)
}

// lstmGateGradsScalar runs LSTMGateGrads' loop over hidden units from to h.
// It is not inlined, for lstmCellScalar's reason.
//
//go:noinline
func lstmGateGradsScalar(dz, db, gates, dout, dhNext, dcNext, tanhC, cPrev, dcPrev []float32, from int) {
	h := len(dout)
	zi, zf, zg, zo := quarters(gates, h)
	dzi, dzf, dzg, dzo := quarters(dz, h)
	dbi, dbf, dbg, dbo := quarters(db, h)
	dhNext, dcNext, tanhC, cPrev, dcPrev = dhNext[:h], dcNext[:h], tanhC[:h], cPrev[:h], dcPrev[:h]
	for k := from; k < h; k++ {
		ig, fg, gg, og := zi[k], zf[k], zg[k], zo[k]
		tv := tanhC[k]
		dh := dout[k] + dhNext[k]
		dc := dcNext[k] + float32(dh*og*(1-float32(tv*tv)))
		di := float32(dc * gg * ig * (1 - ig))
		df := float32(dc * cPrev[k] * fg * (1 - fg))
		dg := float32(dc * ig * (1 - float32(gg*gg)))
		do := float32(dh * tv * og * (1 - og))
		dzi[k], dzf[k], dzg[k], dzo[k] = di, df, dg, do
		dbi[k] += di
		dbf[k] += df
		dbg[k] += dg
		dbo[k] += do
		dcPrev[k] = dc * fg
	}
}

// quarters splits a row of 4h values into four of h.
func quarters(row []float32, h int) (a, b, c, d []float32) {
	row = row[:4*h]
	return row[:h], row[h:][:h], row[2*h:][:h], row[3*h:][:h]
}

// SubWiden sets dst[j] to float64(src[j] − s): the difference is rounded to
// float32, then widened exactly.
func SubWiden(dst []float64, src []float32, s float32) {
	src = src[:len(dst)]
	if fn := activeKernel.Load().subWiden; fn != nil && len(dst) >= 8 {
		whole := len(dst) &^ 7
		fn(&dst[0], &src[0], uintptr(whole), s)
		dst, src = dst[whole:], src[whole:]
	}
	subWidenScalar(dst, src, s)
}

func subWidenScalar(dst []float64, src []float32, s float32) {
	src = src[:len(dst)]
	for j, v := range src {
		dst[j] = float64(v - s)
	}
}

// DivNarrowScale sets dst[j] to float32(src[j]/d)·s: the quotient is rounded
// to float32, then scaled.
func DivNarrowScale(dst []float32, src []float64, d float64, s float32) {
	src = src[:len(dst)]
	if fn := activeKernel.Load().divNarrowScale; fn != nil && len(dst) >= 8 {
		whole := len(dst) &^ 7
		fn(&dst[0], &src[0], uintptr(whole), d, s)
		dst, src = dst[whole:], src[whole:]
	}
	divNarrowScaleScalar(dst, src, d, s)
}

func divNarrowScaleScalar(dst []float32, src []float64, d float64, s float32) {
	src = src[:len(dst)]
	for j, e := range src {
		dst[j] = float32(e/d) * s
	}
}
