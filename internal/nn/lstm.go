package nn

import (
	"fmt"
	"math/rand"
	"sync"

	"fedmp/internal/tensor"
)

// Embedding maps integer token ids to dense vectors. Weights have shape
// [V, E]; forward gathers rows, backward scatters gradients.
type Embedding struct {
	name string
	V, E int
	W    *Param

	tokens [][]int
	out    *tensor.Tensor // cached lookup output
}

// NewEmbedding constructs an embedding table with Xavier-uniform rows.
func NewEmbedding(name string, vocab, dim int, rng *rand.Rand) *Embedding {
	if vocab <= 0 || dim <= 0 {
		panic(fmt.Sprintf("nn: Embedding %q with non-positive dims %dx%d", name, vocab, dim))
	}
	return &Embedding{
		name: name, V: vocab, E: dim,
		W: NewParam(name+"/W", tensor.XavierInit(rng, vocab, dim, vocab, dim)),
	}
}

// Name returns the layer name.
func (e *Embedding) Name() string { return e.name }

// Params returns the embedding table.
func (e *Embedding) Params() []*Param { return []*Param{e.W} }

// Lookup gathers embeddings for a batch of equal-length token sequences,
// producing [N, T, E].
func (e *Embedding) Lookup(tokens [][]int) *tensor.Tensor {
	n := len(tokens)
	if n == 0 {
		panic("nn: Embedding.Lookup with empty batch")
	}
	t := len(tokens[0])
	out := ensure(e.out, n, t, e.E)
	e.out = out
	for i, seq := range tokens {
		if len(seq) != t {
			panic(fmt.Sprintf("nn: Embedding %q ragged batch: %d vs %d", e.name, len(seq), t))
		}
		for j, tok := range seq {
			if tok < 0 || tok >= e.V {
				panic(fmt.Sprintf("nn: Embedding %q token %d out of range [0,%d)", e.name, tok, e.V))
			}
			copy(out.Data[(i*t+j)*e.E:(i*t+j+1)*e.E], e.W.W.Data[tok*e.E:(tok+1)*e.E])
		}
	}
	e.tokens = tokens
	return out
}

// BackwardLookup scatters dY [N, T, E] into the table gradient.
func (e *Embedding) BackwardLookup(dy *tensor.Tensor) {
	t := len(e.tokens[0])
	for i, seq := range e.tokens {
		for j, tok := range seq {
			src := dy.Data[(i*t+j)*e.E : (i*t+j+1)*e.E]
			dst := e.W.Grad.Data[tok*e.E : (tok+1)*e.E]
			for k, v := range src {
				dst[k] += v
			}
		}
	}
}

// LSTM is a single long short-term-memory layer mapping [N, T, D] input
// activations to [N, T, H] hidden states, with full backpropagation through
// time. Gates are packed in i,f,g,o order: Wx has shape [4H, D], Wh has
// shape [4H, H] and the bias b has shape [4H]. Hidden unit k owns rows
// {k, H+k, 2H+k, 3H+k} of Wx/Wh/b and column k of Wh — exactly the
// "intrinsic sparse structure" component the RNN pruning strategy (§VI of
// the paper, after Wen et al.) removes as one unit.
//
// The six products of a timestep — z = x_t·Wxᵀ + h·Whᵀ forward; dWx += dzᵀ·x_t,
// dWh += dzᵀ·h, dx_t = dz·Wx and dh = dz·Wh backward — go through
// tensor.GEMMPacked: Wx and Wh are packed once per Forward and once per
// Backward rather than once per timestep, and x_t is read in place from the
// [N, T, D] input. Each product keeps the per-timestep (m, k, n) the
// MatMul*Into calls had, so results are bit-identical to them (DESIGN.md
// §2a): one product over all timesteps would move the kc chunk boundaries of
// the weight gradients' sums and which side of smallGEMMFLOPs every product
// falls on.
type LSTM struct {
	name string
	D, H int
	Wx   *Param
	Wh   *Param
	B    *Param

	// cached forward state: gate activations, cell states, hidden states and
	// tanh(cell) per timestep, as [T] slices of [N,·] tensors. All buffers
	// are reused across steps and reallocated only when (N, T) changes.
	x         *tensor.Tensor
	gates     []*tensor.Tensor // [T] of [N,4H], post-nonlinearity
	cells     []*tensor.Tensor // [T] of [N,H]
	hiddens   []*tensor.Tensor // [T] of [N,H]
	tanhCells []*tensor.Tensor // [T] of [N,H]
	timeSteps int
	batchSize int

	// reused workspaces. h0/c0 are the zero initial states (never written
	// after allocation).
	out    *tensor.Tensor // [N,T,H] forward output
	h0, c0 *tensor.Tensor // [N,H] zeros

	dx       *tensor.Tensor // [N,T,D] input gradient
	dz       *tensor.Tensor // [N,4H]
	dcA, dcB *tensor.Tensor // [N,H] cell-gradient double buffer
	dhNext   *tensor.Tensor // [N,H]
	dxT      *tensor.Tensor // [N,D]
}

// lstmPacks are the packed operands of one Forward or Backward call: the
// weights, packed once per call (as Wxᵀ, Whᵀ forward and Wx, Wh backward),
// and the per-timestep activations. Nothing in them outlives the call, so
// layers draw them from a pool: a copy of the weights per goroutine, not per
// cached network.
type lstmPacks struct {
	wx, wh, actB tensor.PackedB
	actA         tensor.PackedA
}

var lstmPackPool = sync.Pool{New: func() any { return new(lstmPacks) }}

// The pool's interface conversions live in these two, outside the
// allocation-free Forward and Backward.
func getLSTMPacks() *lstmPacks   { return lstmPackPool.Get().(*lstmPacks) }
func putLSTMPacks(pk *lstmPacks) { lstmPackPool.Put(pk) }

// NewLSTM constructs an LSTM layer. The forget-gate bias is initialised to 1,
// the usual trick for stable early training.
func NewLSTM(name string, in, hidden int, rng *rand.Rand) *LSTM {
	if in <= 0 || hidden <= 0 {
		panic(fmt.Sprintf("nn: LSTM %q with non-positive dims %dx%d", name, in, hidden))
	}
	l := &LSTM{
		name: name, D: in, H: hidden,
		Wx: NewParam(name+"/Wx", tensor.XavierInit(rng, in, hidden, 4*hidden, in)),
		Wh: NewParam(name+"/Wh", tensor.XavierInit(rng, hidden, hidden, 4*hidden, hidden)),
		B:  NewParam(name+"/b", tensor.New(4*hidden)),
	}
	for k := 0; k < hidden; k++ {
		l.B.W.Data[hidden+k] = 1 // forget gate bias
	}
	return l
}

// Name returns the layer name.
func (l *LSTM) Name() string { return l.name }

// Params returns Wx, Wh and b.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// StepFLOPs returns the per-sample FLOPs of one timestep.
func (l *LSTM) StepFLOPs() float64 {
	return 2 * float64(4*l.H) * float64(l.D+l.H)
}

// gateRows splits one [4H] row of gate values into its i, f, g and o
// quarters, each exactly H long so loops over one index them all without
// bounds checks.
func gateRows(row []float32, h int) (i, f, g, o []float32) {
	row = row[:4*h]
	return row[:h], row[h:][:h], row[2*h:][:h], row[3*h:][:h]
}

// resizeSteps re-creates the per-timestep state for sequences of t steps.
func (l *LSTM) resizeSteps(t int) {
	l.gates = make([]*tensor.Tensor, t)
	l.cells = make([]*tensor.Tensor, t)
	l.hiddens = make([]*tensor.Tensor, t)
	l.tanhCells = make([]*tensor.Tensor, t)
}

// Forward runs the sequence x [N, T, D] and returns hidden states [N, T, H].
// Initial hidden and cell states are zero.
//
//fedmp:allocfree
func (l *LSTM) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[2] != l.D {
		panic(fmt.Sprintf("nn: LSTM %q got input %v, want [N T %d]", l.name, x.Shape, l.D))
	}
	n, t := x.Shape[0], x.Shape[1]
	d, h := l.D, l.H
	l.x = x
	l.timeSteps, l.batchSize = t, n
	if len(l.gates) != t {
		l.resizeSteps(t) //fedmp:transitive-ok — only when the sequence length changes
	}
	out := ensure(l.out, n, t, h) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	l.out = out
	l.h0 = ensure(l.h0, n, h) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	l.c0 = ensure(l.c0, n, h) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	pk := getLSTMPacks()
	defer putLSTMPacks(pk)
	pk.wx.Pack(l.Wx.W.Data, true, n, d, 4*h)
	pk.wh.Pack(l.Wh.W.Data, true, n, h, 4*h)
	bias := l.B.W.Data[:4*h]
	hPrev, cPrev := l.h0, l.c0
	for step := 0; step < t; step++ {
		z := ensure(l.gates[step], n, 4*h)    //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
		c := ensure(l.cells[step], n, h)      //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
		hid := ensure(l.hiddens[step], n, h)  //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
		tc := ensure(l.tanhCells[step], n, h) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
		l.gates[step], l.cells[step], l.hiddens[step], l.tanhCells[step] = z, c, hid, tc
		// z = x_t·Wxᵀ + hPrev·Whᵀ; rows of x_t lie T·D apart in x.
		pk.actA.PackRows(x.Data[step*d:], t*d, n, d, 4*h)
		tensor.GEMMPacked(z.Data, &pk.actA, &pk.wx, false)
		pk.actA.Pack(hPrev.Data, false, n, h, 4*h)
		tensor.GEMMPacked(z.Data, &pk.actA, &pk.wh, true)
		// Bias and gate nonlinearities, a row at a time so that each sweep
		// finds its row in cache: sigmoid over i and f, which lie side by
		// side, and o; tanh over g. Then the cell, its tanh over the whole
		// batch in one sweep, and the hidden state.
		for i := 0; i < n; i++ {
			zr := z.Data[i*4*h:][:len(bias)]
			for k, b := range bias {
				zr[k] += b
			}
			tensor.SigmoidInto(zr[:2*h], zr[:2*h])
			tensor.TanhInto(zr[2*h:3*h], zr[2*h:3*h])
			tensor.SigmoidInto(zr[3*h:], zr[3*h:])
			zi, zf, zg, _ := gateRows(zr, h)
			cr := c.Data[i*h:][:len(zi)]
			cp := cPrev.Data[i*h:][:len(zi)]
			for k := range zi {
				cr[k] = zf[k]*cp[k] + zi[k]*zg[k]
			}
		}
		tensor.TanhInto(tc.Data, c.Data)
		for i := 0; i < n; i++ {
			zo := z.Data[i*4*h+3*h:][:h]
			hr := hid.Data[i*h:][:len(zo)]
			tr := tc.Data[i*h:][:len(zo)]
			or := out.Data[(i*t+step)*h:][:len(zo)]
			for k, og := range zo {
				hv := og * tr[k]
				hr[k] = hv
				or[k] = hv
			}
		}
		hPrev, cPrev = hid, c
	}
	return out
}

// Backward consumes dOut [N, T, H] and returns dX [N, T, D], accumulating
// parameter gradients.
//
//fedmp:allocfree
func (l *LSTM) Backward(dout *tensor.Tensor) *tensor.Tensor {
	n, t := l.batchSize, l.timeSteps
	d, h := l.D, l.H
	dx := ensure(l.dx, n, t, d) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	l.dx = dx
	dhNext := ensure(l.dhNext, n, h) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	l.dhNext = dhNext
	dhNext.Zero()
	dcNext := ensure(l.dcA, n, h) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	l.dcA = dcNext
	dcNext.Zero()
	dcPrev := ensure(l.dcB, n, h) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	l.dcB = dcPrev
	dz := ensure(l.dz, n, 4*h) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	l.dz = dz
	dxT := ensure(l.dxT, n, d) //fedmp:transitive-ok — allocates only when the batch outgrows the buffer
	l.dxT = dxT
	pk := getLSTMPacks()
	defer putLSTMPacks(pk)
	pk.wx.Pack(l.Wx.W.Data, false, n, 4*h, d)
	pk.wh.Pack(l.Wh.W.Data, false, n, 4*h, h)
	dbi, dbf, dbg, dbo := gateRows(l.B.Grad.Data, h)
	for step := t - 1; step >= 0; step-- {
		gates := l.gates[step]
		tc := l.tanhCells[step]
		cPrev, hPrev := l.c0, l.h0
		if step > 0 {
			cPrev, hPrev = l.cells[step-1], l.hiddens[step-1]
		}
		// dh = dOut_t + dhNext, the gate pre-activation gradients dz and
		// the bias gradient (column sums of dz, rows ascending) in one pass.
		for i := 0; i < n; i++ {
			zi, zf, zg, zo := gateRows(gates.Data[i*4*h:], h)
			dzi, dzf, dzg, dzo := gateRows(dz.Data[i*4*h:], h)
			dor := dout.Data[(i*t+step)*h:][:len(zi)]
			dhn := dhNext.Data[i*h:][:len(zi)]
			dcn := dcNext.Data[i*h:][:len(zi)]
			tr := tc.Data[i*h:][:len(zi)]
			cp := cPrev.Data[i*h:][:len(zi)]
			dcp := dcPrev.Data[i*h:][:len(zi)]
			for k := range zi {
				ig, fg, gg, og := zi[k], zf[k], zg[k], zo[k]
				tv := tr[k]
				dhv := dor[k] + dhn[k]
				dc := dcn[k] + dhv*og*(1-tv*tv)
				di := dc * gg * ig * (1 - ig)    // input gate (pre-sigmoid)
				df := dc * cp[k] * fg * (1 - fg) // forget gate
				dg := dc * ig * (1 - gg*gg)      // candidate (pre-tanh)
				do := dhv * tv * og * (1 - og)   // output gate
				dzi[k], dzf[k], dzg[k], dzo[k] = di, df, dg, do
				dbi[k] += di
				dbf[k] += df
				dbg[k] += dg
				dbo[k] += do
				dcp[k] = dc * fg
			}
		}
		// dWx += dzᵀ·x_t and dWh += dzᵀ·hPrev.
		pk.actA.Pack(dz.Data, true, 4*h, n, d)
		pk.actB.PackRows(l.x.Data[step*d:], t*d, 4*h, n, d)
		tensor.GEMMPacked(l.Wx.Grad.Data, &pk.actA, &pk.actB, true)
		pk.actA.Pack(dz.Data, true, 4*h, n, h)
		pk.actB.Pack(hPrev.Data, false, 4*h, n, h)
		tensor.GEMMPacked(l.Wh.Grad.Data, &pk.actA, &pk.actB, true)
		// dx_t = dz·Wx and dhNext = dz·Wh.
		pk.actA.Pack(dz.Data, false, n, 4*h, d)
		tensor.GEMMPacked(dxT.Data, &pk.actA, &pk.wx, false)
		for i := 0; i < n; i++ {
			copy(dx.Data[(i*t+step)*d:(i*t+step+1)*d], dxT.Data[i*d:(i+1)*d])
		}
		pk.actA.Pack(dz.Data, false, n, 4*h, h)
		tensor.GEMMPacked(dhNext.Data, &pk.actA, &pk.wh, false)
		dcNext, dcPrev = dcPrev, dcNext
	}
	return dx
}

// LSTMLM is the two-layer LSTM language model from §VI of the paper: an
// embedding table, two stacked LSTM layers and a dense vocabulary head,
// trained with per-token softmax cross-entropy. It implements Network.
type LSTMLM struct {
	Embed  *Embedding
	L1, L2 *LSTM
	Out    *Dense
	SeqLen int

	loss   SoftmaxCE
	params []*Param

	// reused per-step buffers
	inputs      [][]int
	targets     []int
	flatV, dh2V *tensor.Tensor
}

// NewLSTMLM builds the language model. seqLen is the BPTT window (sequences
// in batches must contain seqLen+1 tokens).
func NewLSTMLM(vocab, embedDim, hidden, seqLen int, rng *rand.Rand) *LSTMLM {
	m := &LSTMLM{
		Embed:  NewEmbedding("embed", vocab, embedDim, rng),
		L1:     NewLSTM("lstm1", embedDim, hidden, rng),
		L2:     NewLSTM("lstm2", hidden, hidden, rng),
		Out:    NewDense("out", hidden, vocab, rng),
		SeqLen: seqLen,
	}
	m.params = append(m.params, m.Embed.Params()...)
	m.params = append(m.params, m.L1.Params()...)
	m.params = append(m.params, m.L2.Params()...)
	m.params = append(m.params, m.Out.Params()...)
	return m
}

// Params implements Network.
func (m *LSTMLM) Params() []*Param { return m.params }

// ForwardFLOPs implements Network: per sample, T timesteps through both
// LSTMs plus the vocabulary projection.
func (m *LSTMLM) ForwardFLOPs() float64 {
	t := float64(m.SeqLen)
	return t * (m.L1.StepFLOPs() + m.L2.StepFLOPs() + 2*float64(m.Out.In)*float64(m.Out.Out))
}

// splitSeqs separates input tokens from shifted targets. The returned slices
// are reused across calls.
func (m *LSTMLM) splitSeqs(b *Batch) (inputs [][]int, targets []int) {
	if cap(m.inputs) < len(b.Seq) {
		m.inputs = make([][]int, len(b.Seq))
	}
	inputs = m.inputs[:len(b.Seq)]
	targets = m.targets[:0]
	for i, seq := range b.Seq {
		if len(seq) != m.SeqLen+1 {
			panic(fmt.Sprintf("nn: LSTMLM wants sequences of %d tokens, got %d", m.SeqLen+1, len(seq)))
		}
		inputs[i] = seq[:m.SeqLen]
		targets = append(targets, seq[1:]...)
	}
	m.targets = targets
	return inputs, targets
}

func (m *LSTMLM) forward(b *Batch) (logits *tensor.Tensor, targets []int) {
	inputs, targets := m.splitSeqs(b)
	e := m.Embed.Lookup(inputs)
	h1 := m.L1.Forward(e)
	h2 := m.L2.Forward(h1)
	n := len(inputs)
	m.flatV = view(m.flatV, h2.Data, n*m.SeqLen, m.L2.H)
	return m.Out.Forward(m.flatV, true), targets
}

// gradClip bounds language-model gradients; BPTT through two stacked LSTMs
// explodes without it.
const gradClip = 5

// TrainStep implements Network.
func (m *LSTMLM) TrainStep(b *Batch) (float64, int) {
	for _, p := range m.params {
		p.ZeroGrad()
	}
	logits, targets := m.forward(b)
	loss, correct, dlogits := m.loss.LossAndGrad(logits, targets)
	dflat := m.Out.Backward(dlogits)
	n := len(b.Seq)
	m.dh2V = view(m.dh2V, dflat.Data, n, m.SeqLen, m.L2.H)
	dh2 := m.dh2V
	dh1 := m.L2.Backward(dh2)
	de := m.L1.Backward(dh1)
	m.Embed.BackwardLookup(de)
	for _, p := range m.params {
		p.Grad.Clip(gradClip)
	}
	return loss, correct
}

// Eval implements Network. It reports the mean per-token loss; perplexity is
// exp of that value.
func (m *LSTMLM) Eval(b *Batch) (float64, int) {
	logits, targets := m.forward(b)
	return m.loss.Loss(logits, targets)
}
