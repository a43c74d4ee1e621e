package nn

import (
	"fmt"
	"math"

	"fedmp/internal/tensor"
)

// Reference copies of the layer code this package ran before the convolution
// data path was rebuilt, kept verbatim (renamed with a ref prefix, lint
// hatches dropped) so diff_test.go can demand bitwise equality between old
// and new: Conv2D with a batch of column matrices and one MatMul*Into triple
// per sample, ReLU with its bool mask, the general MaxPool2D window scan,
// SGD.Step cloning the gradient for weight decay, and the exact-shape ensure
// they relied on; from before its products moved onto packed operands, the
// LSTM layer; and from before the transcendentals moved into tensor's slice
// kernels, the LSTM's scalar sigmoid and tanh and the softmax cross-entropy
// with one math.Exp call per use. The tensor primitives they call (Im2Col, Col2Im, the
// MatMul*Into entry points) are pinned against their own verbatim parents in
// internal/tensor's differential tests. Test-only: nothing outside _test.go
// files may call these.

func refEnsure(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	if t != nil && len(t.Shape) == len(shape) {
		match := true
		for i, d := range shape {
			if t.Shape[i] != d {
				match = false
				break
			}
		}
		if match {
			return t
		}
	}
	return tensor.New(shape...)
}

type refConv2D struct {
	name string
	Geom tensor.ConvGeom
	W, B *Param

	x    *tensor.Tensor // cached input batch
	cols []float32      // cached im2col buffers, one block per sample

	// reused buffers and view headers; rebuilt only when geometry changes
	y, dx       *tensor.Tensor // cached output / input gradient
	dcols       *tensor.Tensor // [rows, outArea] column-gradient scratch
	wmat, dwMat *tensor.Tensor // [outC, rows] views of W / W.Grad
	outV, dyV   *tensor.Tensor // per-sample [outC, outArea] views
	colV        *tensor.Tensor // per-sample [rows, outArea] view
}

func (c *refConv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g := c.Geom
	if len(x.Shape) != 4 || x.Shape[1] != g.InC || x.Shape[2] != g.InH || x.Shape[3] != g.InW {
		panic(fmt.Sprintf("nn: Conv2D %q got input %v, want [N %d %d %d]",
			c.name, x.Shape, g.InC, g.InH, g.InW))
	}
	n := x.Shape[0]
	rows := g.InC * g.KH * g.KW
	outArea := g.OutH() * g.OutW()
	c.x = x
	if len(c.cols) != n*rows*outArea {
		c.cols = make([]float32, n*rows*outArea)
	}
	y := refEnsure(c.y, n, g.OutC, g.OutH(), g.OutW())
	c.y = y
	c.wmat = view(c.wmat, c.W.W.Data, g.OutC, rows)
	inSize := g.InC * g.InH * g.InW
	for i := 0; i < n; i++ {
		cb := c.cols[i*rows*outArea : (i+1)*rows*outArea]
		tensor.Im2Col(x.Data[i*inSize:(i+1)*inSize], g, cb)
		out := view(c.outV, y.Data[i*g.OutC*outArea:(i+1)*g.OutC*outArea], g.OutC, outArea)
		c.outV = out
		c.colV = view(c.colV, cb, rows, outArea)
		tensor.MatMulInto(out, c.wmat, c.colV, false)
		for oc := 0; oc < g.OutC; oc++ {
			bias := c.B.W.Data[oc]
			if bias == 0 {
				continue
			}
			plane := out.Data[oc*outArea : (oc+1)*outArea]
			for j := range plane {
				plane[j] += bias
			}
		}
	}
	return y
}

func (c *refConv2D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	g := c.Geom
	n := dy.Shape[0]
	rows := g.InC * g.KH * g.KW
	outArea := g.OutH() * g.OutW()
	inSize := g.InC * g.InH * g.InW
	dx := refEnsure(c.dx, n, g.InC, g.InH, g.InW)
	c.dx = dx
	dx.Zero() // Col2Im accumulates
	c.dwMat = view(c.dwMat, c.W.Grad.Data, g.OutC, rows)
	c.wmat = view(c.wmat, c.W.W.Data, g.OutC, rows)
	dcols := refEnsure(c.dcols, rows, outArea)
	c.dcols = dcols
	for i := 0; i < n; i++ {
		dyi := view(c.dyV, dy.Data[i*g.OutC*outArea:(i+1)*g.OutC*outArea], g.OutC, outArea)
		c.dyV = dyi
		cb := view(c.colV, c.cols[i*rows*outArea:(i+1)*rows*outArea], rows, outArea)
		c.colV = cb
		// dW += dy_i · colsᵀ
		tensor.MatMulTBInto(c.dwMat, dyi, cb, true)
		// db += per-channel sums of dy_i.
		for oc := 0; oc < g.OutC; oc++ {
			plane := dyi.Data[oc*outArea : (oc+1)*outArea]
			var s float32
			for _, v := range plane {
				s += v
			}
			c.B.Grad.Data[oc] += s
		}
		// dcols = Wᵀ · dy_i, scattered back through col2im.
		tensor.MatMulTAInto(dcols, c.wmat, dyi, false)
		tensor.Col2Im(dcols.Data, g, dx.Data[i*inSize:(i+1)*inSize])
	}
	return dx
}

type refReLU struct {
	name  string
	mask  []bool // true where the input was positive
	size  float64
	y, dx *tensor.Tensor // reused output buffers
}

func (r *refReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := refEnsure(r.y, x.Shape...)
	r.y = y
	if len(r.mask) != len(y.Data) {
		r.mask = make([]bool, len(y.Data))
	}
	for i, v := range x.Data {
		if v > 0 {
			r.mask[i] = true
			y.Data[i] = v
		} else {
			r.mask[i] = false
			y.Data[i] = 0
		}
	}
	if x.Shape[0] > 0 {
		r.size = float64(len(x.Data)) / float64(x.Shape[0])
	}
	return y
}

func (r *refReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	dx := refEnsure(r.dx, dy.Shape...)
	r.dx = dx
	for i, v := range dy.Data {
		if r.mask[i] {
			dx.Data[i] = v
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

func refMaxPoolForward(m *MaxPool2D, x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != m.C || x.Shape[2] != m.InH || x.Shape[3] != m.InW {
		panic(fmt.Sprintf("nn: MaxPool2D %q got input %v, want [N %d %d %d]", m.name, x.Shape, m.C, m.InH, m.InW))
	}
	n := x.Shape[0]
	outH, outW := m.InH/m.Window, m.InW/m.Window
	y := refEnsure(m.y, n, m.C, outH, outW)
	m.y = y
	if len(m.argmax) != len(y.Data) {
		m.argmax = make([]int32, len(y.Data))
	}
	m.inShape = x.Shape
	planeIn := m.InH * m.InW
	planeOut := outH * outW
	for i := 0; i < n; i++ {
		for c := 0; c < m.C; c++ {
			in := x.Data[(i*m.C+c)*planeIn : (i*m.C+c+1)*planeIn]
			outBase := (i*m.C + c) * planeOut
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					best := float32(0)
					bi := -1
					for kh := 0; kh < m.Window; kh++ {
						rowOff := (oh*m.Window + kh) * m.InW
						for kw := 0; kw < m.Window; kw++ {
							idx := rowOff + ow*m.Window + kw
							if bi < 0 || in[idx] > best {
								best, bi = in[idx], idx
							}
						}
					}
					oi := outBase + oh*outW + ow
					y.Data[oi] = best
					m.argmax[oi] = int32((i*m.C+c)*planeIn + bi)
				}
			}
		}
	}
	return y
}

func refSGDStep(s *SGD, params []*Param) {
	for _, p := range params {
		if p.Frozen {
			continue
		}
		g := p.Grad
		if s.WeightDecay != 0 {
			// Applied into a scratch copy so Grad still reports the raw
			// data gradient after Step (the FedProx strategy reads it).
			g = g.Clone()
			g.AddScaled(s.WeightDecay, p.W)
		}
		if s.Momentum > 0 {
			v, ok := s.velocity[p]
			if !ok {
				v = tensor.New(p.W.Shape...)
				s.velocity[p] = v
			}
			v.Scale(s.Momentum)
			v.Add(g)
			g = v
		}
		p.W.AddScaled(-s.LR, g)
	}
}

// refLSTM is the LSTM layer as it stood before its products moved onto
// packed operands: a gather of x_t and one MatMul*Into call per product and
// timestep, then separate bias, gate and copy passes. It uses the current
// ensure (the parent's own), not refEnsure.
type refLSTM struct {
	name string
	D, H int
	Wx   *Param
	Wh   *Param
	B    *Param

	// cached forward state: per-timestep inputs, gate activations and cell
	// states, flattened as [T] slices of [N,·] tensors. All buffers are
	// reused across steps and reallocated only when (N, T) changes.
	x         *tensor.Tensor
	gates     []*tensor.Tensor // [T] of [N,4H], post-nonlinearity
	cells     []*tensor.Tensor // [T] of [N,H]
	hiddens   []*tensor.Tensor // [T] of [N,H]
	tanhCells []*tensor.Tensor // [T] of [N,H]
	timeSteps int
	batchSize int

	// reused workspaces. h0/c0 are the zero initial states (never written
	// after allocation); xt is the per-timestep input gather buffer shared
	// by forward and backward.
	out    *tensor.Tensor // [N,T,H] forward output
	h0, c0 *tensor.Tensor // [N,H] zeros
	xt     *tensor.Tensor // [N,D]

	dx       *tensor.Tensor // [N,T,D] input gradient
	dh, dz   *tensor.Tensor // [N,H], [N,4H]
	dcA, dcB *tensor.Tensor // [N,H] cell-gradient double buffer
	dhNext   *tensor.Tensor // [N,H]
	dxT      *tensor.Tensor // [N,D]
}

func sigmoid(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

func tanhf(v float32) float32 {
	return float32(math.Tanh(float64(v)))
}

// Forward runs the sequence x [N, T, D] and returns hidden states [N, T, H].
// Initial hidden and cell states are zero.
func (l *refLSTM) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[2] != l.D {
		panic(fmt.Sprintf("nn: LSTM %q got input %v, want [N T %d]", l.name, x.Shape, l.D))
	}
	n, t := x.Shape[0], x.Shape[1]
	l.x = x
	l.timeSteps, l.batchSize = t, n
	if len(l.gates) != t {
		l.gates = make([]*tensor.Tensor, t)
		l.cells = make([]*tensor.Tensor, t)
		l.hiddens = make([]*tensor.Tensor, t)
		l.tanhCells = make([]*tensor.Tensor, t)
	}
	out := ensure(l.out, n, t, l.H)
	l.out = out
	l.h0 = ensure(l.h0, n, l.H)
	l.c0 = ensure(l.c0, n, l.H)
	l.xt = ensure(l.xt, n, l.D)
	hPrev, cPrev := l.h0, l.c0
	for step := 0; step < t; step++ {
		xt := l.xt
		l.timeSlice(xt, x, step) // [N, D]
		z := ensure(l.gates[step], n, 4*l.H)
		l.gates[step] = z
		tensor.MatMulTBInto(z, xt, l.Wx.W, false)
		tensor.MatMulTBInto(z, hPrev, l.Wh.W, true)
		for i := 0; i < n; i++ {
			row := z.Data[i*4*l.H : (i+1)*4*l.H]
			for j, bv := range l.B.W.Data {
				row[j] += bv
			}
		}
		c := ensure(l.cells[step], n, l.H)
		h := ensure(l.hiddens[step], n, l.H)
		tc := ensure(l.tanhCells[step], n, l.H)
		l.cells[step], l.hiddens[step], l.tanhCells[step] = c, h, tc
		for i := 0; i < n; i++ {
			zr := z.Data[i*4*l.H : (i+1)*4*l.H]
			cr := c.Data[i*l.H : (i+1)*l.H]
			cp := cPrev.Data[i*l.H : (i+1)*l.H]
			hr := h.Data[i*l.H : (i+1)*l.H]
			tr := tc.Data[i*l.H : (i+1)*l.H]
			for k := 0; k < l.H; k++ {
				ig := sigmoid(zr[k])
				fg := sigmoid(zr[l.H+k])
				gg := tanhf(zr[2*l.H+k])
				og := sigmoid(zr[3*l.H+k])
				zr[k], zr[l.H+k], zr[2*l.H+k], zr[3*l.H+k] = ig, fg, gg, og
				cv := fg*cp[k] + ig*gg
				cr[k] = cv
				tv := tanhf(cv)
				tr[k] = tv
				hr[k] = og * tv
			}
		}
		for i := 0; i < n; i++ {
			copy(out.Data[(i*t+step)*l.H:(i*t+step+1)*l.H], h.Data[i*l.H:(i+1)*l.H])
		}
		hPrev, cPrev = h, c
	}
	return out
}

// timeSlice gathers timestep `step` of x [N, T, D] into dst [N, D].
func (l *refLSTM) timeSlice(dst, x *tensor.Tensor, step int) {
	n, t, d := x.Shape[0], x.Shape[1], x.Shape[2]
	for i := 0; i < n; i++ {
		copy(dst.Data[i*d:(i+1)*d], x.Data[(i*t+step)*d:(i*t+step+1)*d])
	}
}

// Backward consumes dOut [N, T, H] and returns dX [N, T, D], accumulating
// parameter gradients.
func (l *refLSTM) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n, t := l.batchSize, l.timeSteps
	dx := ensure(l.dx, n, t, l.D)
	l.dx = dx
	dhNext := ensure(l.dhNext, n, l.H)
	l.dhNext = dhNext
	dhNext.Zero()
	dcNext := ensure(l.dcA, n, l.H)
	l.dcA = dcNext
	dcNext.Zero()
	dcPrev := ensure(l.dcB, n, l.H)
	l.dcB = dcPrev
	dh := ensure(l.dh, n, l.H)
	l.dh = dh
	dz := ensure(l.dz, n, 4*l.H)
	l.dz = dz
	dxT := ensure(l.dxT, n, l.D)
	l.dxT = dxT
	for step := t - 1; step >= 0; step-- {
		// dh = dOut_t + dhNext
		for i := 0; i < n; i++ {
			src := dout.Data[(i*t+step)*l.H : (i*t+step+1)*l.H]
			dst := dh.Data[i*l.H : (i+1)*l.H]
			copy(dst, src)
		}
		dh.Add(dhNext)

		gates := l.gates[step]
		tc := l.tanhCells[step]
		cPrev := l.c0
		if step > 0 {
			cPrev = l.cells[step-1]
		}
		for i := 0; i < n; i++ {
			zr := gates.Data[i*4*l.H : (i+1)*4*l.H]
			dhr := dh.Data[i*l.H : (i+1)*l.H]
			dcn := dcNext.Data[i*l.H : (i+1)*l.H]
			tr := tc.Data[i*l.H : (i+1)*l.H]
			cp := cPrev.Data[i*l.H : (i+1)*l.H]
			dzr := dz.Data[i*4*l.H : (i+1)*4*l.H]
			dcp := dcPrev.Data[i*l.H : (i+1)*l.H]
			for k := 0; k < l.H; k++ {
				ig, fg, gg, og := zr[k], zr[l.H+k], zr[2*l.H+k], zr[3*l.H+k]
				tv := tr[k]
				dc := dcn[k] + dhr[k]*og*(1-tv*tv)
				dzr[k] = dc * gg * ig * (1 - ig)           // input gate (pre-sigmoid)
				dzr[l.H+k] = dc * cp[k] * fg * (1 - fg)    // forget gate
				dzr[2*l.H+k] = dc * ig * (1 - gg*gg)       // candidate (pre-tanh)
				dzr[3*l.H+k] = dhr[k] * tv * og * (1 - og) // output gate
				dcp[k] = dc * fg
			}
		}
		xt := l.xt
		l.timeSlice(xt, l.x, step)
		hPrev := l.h0
		if step > 0 {
			hPrev = l.hiddens[step-1]
		}
		tensor.MatMulTAInto(l.Wx.Grad, dz, xt, true)
		tensor.MatMulTAInto(l.Wh.Grad, dz, hPrev, true)
		for i := 0; i < n; i++ {
			row := dz.Data[i*4*l.H : (i+1)*4*l.H]
			for j, v := range row {
				l.B.Grad.Data[j] += v
			}
		}
		tensor.MatMulInto(dxT, dz, l.Wx.W, false) // [N, D]
		for i := 0; i < n; i++ {
			copy(dx.Data[(i*t+step)*l.D:(i*t+step+1)*l.D], dxT.Data[i*l.D:(i+1)*l.D])
		}
		tensor.MatMulInto(dhNext, dz, l.Wh.W, false) // [N, H]
		dcNext, dcPrev = dcPrev, dcNext
	}
	return dx
}

func refSoftmaxCE(logits *tensor.Tensor, labels []int, grad *tensor.Tensor) (float64, int, *tensor.Tensor) {
	if len(logits.Shape) != 2 {
		panic(fmt.Sprintf("nn: softmax expects [N K] logits, got %v", logits.Shape))
	}
	n, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for %d logits rows", len(labels), n))
	}
	wantGrad := grad != nil
	var totalLoss float64
	correct := 0
	invN := 1 / float32(n)
	for i := 0; i < n; i++ {
		row := logits.Data[i*k : (i+1)*k]
		label := labels[i]
		if label < 0 || label >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", label, k))
		}
		if tensor.ArgMax(row) == label {
			correct++
		}
		// Numerically stable log-softmax.
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sumExp float64
		for _, v := range row {
			sumExp += math.Exp(float64(v - maxv))
		}
		logSum := math.Log(sumExp)
		totalLoss += logSum - float64(row[label]-maxv)
		if wantGrad {
			g := grad.Data[i*k : (i+1)*k]
			for j, v := range row {
				p := float32(math.Exp(float64(v-maxv)) / sumExp)
				if j == label {
					p -= 1
				}
				g[j] = p * invN
			}
		}
	}
	return totalLoss / float64(n), correct, grad
}
