package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"fedmp/internal/nn"
	"fedmp/internal/prune"
	"fedmp/internal/tensor"
	"fedmp/internal/transport/codec"
)

// The exchange of Fig. 1, once for both runtimes: the parameter server frames
// an assignment (Frame), the worker trains it and builds its upload
// (WorkerStep), and the server folds the upload into the round's output
// (Receive). The simulator's runWorker and the TCP server and worker call
// these three and nothing else of this file; between the calls the simulator
// hands tensors over as the codec would deliver them, the TCP runtime puts
// them on a socket.

// Frame is the assignment as the parameter server sends it in the given round
// — the frame the TCP server writes and the simulator prices with
// codec.FrameBytes. It omits the R2SP residual and the pruning plan, which are
// server-side bookkeeping. The weights are shared, not copied.
func (a *Assignment) Frame(round int, quantize bool) *codec.Envelope {
	return &codec.Envelope{Kind: codec.KindAssign, Quantize: quantize, Assign: &codec.Assign{
		Round:    round,
		Desc:     a.Desc,
		Weights:  a.Weights,
		Iters:    a.Iters,
		ProxMu:   a.ProxMu,
		UploadK:  a.UploadK,
		Ratio:    a.Ratio,
		Quantize: quantize,
	}}
}

// Upload is one worker slot's upload state, kept from one assignment to the
// next: the result and the buffers its delta is built in, and the top-K
// compression error FlexCom's error feedback carries into the next
// selection.
type Upload struct {
	res             codec.Result
	delta, leftover []*tensor.Tensor
}

// WorkerStep is a worker's whole answer to one assignment (phase ② of
// Fig. 1): train a on src's batches and build the upload, on local's network
// re-dimensioned to the sub-model (seed reaches Family.BuildNet when one must
// be built), in up's buffers: the result and a dense result's Delta are up's,
// valid until the next WorkerStep on up. up's leftover is ignored when the
// assigned model has changed shape and is replaced with what this upload
// leaves behind (none in dense mode). a.Weights are only read.
func WorkerStep(local *LocalNet, src Source, a *codec.Assign, seed int64, up *Upload) (*codec.Result, error) {
	net, opt, err := local.Get(a.Desc, seed)
	if err != nil {
		return nil, fmt.Errorf("building assigned model: %w", err)
	}
	res := &up.res
	*res = codec.Result{Round: a.Round}
	res.TrainLoss = trainLocal(net, opt, src, a.Weights, max(a.Iters, 1), a.ProxMu)
	feedback := up.leftover
	if !slices.EqualFunc(feedback, a.Weights, tensor.SameShape) {
		feedback = nil
	}
	res.Delta, res.Update = up.build(net.Params(), a.Weights, a.UploadK, feedback, a.Quantize)
	return res, nil
}

// Receive folds a worker's result, as delivered, into the output of the
// assignment it answers: the loss, the top-K update (FlexCom), or — dense
// mode, which ships only trained minus assigned — the new weights, rebuilt
// against the weights the server sent. The sum is formed in the delivered
// delta, which o adopts; the assignment's weights are never written (they may
// alias strategy state). The result is outside input on the parameter server:
// a delta that does not match the assignment is a protocol error reported to
// the caller, not a panic.
func (o *Output) Receive(r *codec.Result) error {
	o.TrainLoss, o.Update = r.TrainLoss, r.Update
	if r.Delta == nil {
		return nil
	}
	base, delta := o.Weights, r.Delta
	if len(delta) != len(base) {
		return fmt.Errorf("delta has %d tensors, assignment has %d", len(delta), len(base))
	}
	for i := range delta {
		if len(delta[i].Data) != len(base[i].Data) || !tensor.SameShape(delta[i], base[i]) {
			return fmt.Errorf("delta tensor %d is %v (%d elements), assignment has %v (%d)",
				i, delta[i].Shape, len(delta[i].Data), base[i].Shape, len(base[i].Data))
		}
		tensor.AddTo(delta[i].Data, base[i].Data)
	}
	o.NewWeights = delta
	return nil
}

// trainLocal loads weights into net and runs iters local SGD iterations on
// src's batches, pulling toward weights with coefficient proxMu when that is
// non-zero (FedProx). It returns the mean training loss; the trained
// parameters stay in net.
func trainLocal(net nn.Network, opt *nn.SGD, src Source, weights []*tensor.Tensor, iters int, proxMu float32) float64 {
	nn.SetWeights(net, weights)
	var lossSum float64
	for it := 0; it < iters; it++ {
		loss, _ := net.TrainStep(src.Next())
		if proxMu > 0 {
			nn.AddProximal(net.Params(), weights, proxMu)
		}
		opt.Step(net.Params())
		lossSum += loss
	}
	return lossSum / float64(iters)
}

// build turns the trained parameters into the upload for an assignment that
// started from assigned — exactly one of delta and update — forming trained
// minus assigned in u's delta buffers, straight from the parameters — each
// first allocated with its assigned tensor's capacity, which for a slot's
// sub-model is the global tensor's length, so it never grows again. With
// uploadK zero the upload is that dense delta: the server still has the
// weights it sent, so repeating them buys nothing, and a partially trained
// delta's zero runs compress under the codec's sparse mode. Otherwise
// feedback — the previous uploads' leftover, nil for none — is added first
// (error feedback, the standard fix for top-K compression stalls) and the
// top uploadK fraction of each tensor is kept as update, in dense form; the
// new leftover is what the selection left behind, measured against what the
// wire delivers, so under quantize it compensates the quantization error
// too. The leftover and the delta trade buffers, so the feedback being read
// is never the delta being written.
func (u *Upload) build(trained []*nn.Param, assigned []*tensor.Tensor, uploadK float64, feedback []*tensor.Tensor, quantize bool) (delta, update []*tensor.Tensor) {
	delta = slices.Grow(u.delta[:0], len(trained))[:len(trained)]
	for i, p := range trained {
		d := tensor.EnsureCap(delta[i], cap(assigned[i].Data), p.W.Shape...)
		delta[i] = d
		tensor.SubInto(d.Data, p.W.Data, assigned[i].Data)
		if uploadK > 0 && feedback != nil {
			d.Add(feedback[i])
		}
	}
	if uploadK <= 0 {
		u.delta, u.leftover = delta, nil
		return delta, nil
	}
	update, _ = topKOf(delta, uploadK)
	sent := update
	if quantize {
		sent = codec.Dequantized(update)
	}
	for i := range delta {
		delta[i].Sub(sent[i])
	}
	u.delta, u.leftover = u.leftover, delta
	return nil, update
}

// magPool recycles the magnitude scratch topKOf ranks in — one buffer per
// concurrently selecting worker, each grown once to its largest tensor.
var magPool = sync.Pool{New: func() any {
	s := make([]float64, 0, 1024)
	return &s
}}

// topKOf keeps the top fraction k of each tensor's coordinates by
// magnitude (layer-wise selection, the form practical compression systems
// use — a global pool lets the largest dense layer starve the convolution
// updates), returning the sparse result in dense form plus the total kept
// count. deltas is not modified. The magnitude threshold comes from an
// O(n) quickselect over a pooled scratch buffer rather than a full sort;
// prune.SelectKth returns exactly the value a sort would place at the cut index,
// so the masks are byte-identical to the sort-based selection.
func topKOf(deltas []*tensor.Tensor, k float64) ([]*tensor.Tensor, int) {
	out := make([]*tensor.Tensor, len(deltas))
	nnz := 0
	sp := magPool.Get().(*[]float64)
	mags := *sp
	for i, src := range deltas {
		d := src.Clone()
		out[i] = d
		total := d.Size()
		keep := int(k * float64(total))
		if keep < 1 {
			keep = 1
		}
		if keep >= total {
			nnz += total
			continue
		}
		if cap(mags) < total {
			mags = make([]float64, 0, total)
		}
		mags = mags[:total]
		for j, v := range d.Data {
			mags[j] = math.Abs(float64(v))
		}
		threshold := prune.SelectKth(mags, total-keep)
		kept := 0
		for j, v := range d.Data {
			if math.Abs(float64(v)) < threshold || (threshold == 0 && v == 0) || kept >= keep {
				d.Data[j] = 0
			} else {
				kept++
			}
		}
		nnz += kept
	}
	*sp = mags[:0]
	magPool.Put(sp)
	return out, nnz
}
