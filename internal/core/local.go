package core

import (
	"fmt"
	"sync"

	"fedmp/internal/nn"
	"fedmp/internal/prune"
	"fedmp/internal/tensor"
	"fedmp/internal/transport/codec"
)

// The worker's local step (phase ② of Fig. 1), once for both runtimes: the
// simulator's runWorker and the TCP worker call TrainLocal and BuildUpload,
// and ApplyDelta is the parameter server's half of the dense upload.

// TrainLocal loads weights into net and runs iters local SGD iterations on
// src's batches, pulling toward weights with coefficient proxMu when that is
// non-zero (FedProx). It returns the mean training loss; the trained
// parameters stay in net.
func TrainLocal(net nn.Network, opt *nn.SGD, src Source, weights []*tensor.Tensor, iters int, proxMu float32) float64 {
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

// Upload is what a worker sends back for one trained assignment — exactly
// one of Delta and Update — and, in top-K mode, what it keeps.
type Upload struct {
	// Delta is the dense upload: trained minus assigned. The server still
	// has the weights it sent, so repeating them buys nothing, and a
	// partially trained delta's zero runs compress under the codec's sparse
	// mode.
	Delta []*tensor.Tensor
	// Update is the sparse top-K upload in dense form (FlexCom); Sent is
	// Update as the wire delivers it (its int8 reconstruction under
	// quantization, Update itself otherwise).
	Update, Sent []*tensor.Tensor
	// Leftover is the compression error the top-K selection left behind:
	// what the next round's selection must see again as feedback.
	Leftover []*tensor.Tensor
}

// BuildUpload turns trained weights into the upload for an assignment that
// started from assigned. trained is consumed: the delta is computed in place
// (pass a copy to keep the weights). With uploadK zero the upload is the
// dense delta. Otherwise feedback — the previous uploads' leftover, nil for
// none — is added first (error feedback, the standard fix for top-K
// compression stalls) and the top uploadK fraction of each tensor is kept;
// the leftover is measured against what the wire delivers, so under quantize
// it compensates the quantization error too.
func BuildUpload(trained, assigned []*tensor.Tensor, uploadK float64, feedback []*tensor.Tensor, quantize bool) Upload {
	delta := trained
	for i := range delta {
		delta[i].Sub(assigned[i])
		if uploadK > 0 && feedback != nil {
			delta[i].Add(feedback[i])
		}
	}
	if uploadK <= 0 {
		return Upload{Delta: delta}
	}
	update, _ := topKOf(delta, uploadK)
	sent := update
	if quantize {
		sent = codec.Dequantized(update)
	}
	for i := range delta {
		delta[i].Sub(sent[i])
	}
	return Upload{Update: update, Sent: sent, Leftover: delta}
}

// ApplyDelta reconstructs a worker's trained weights from the assignment's
// weights plus the uploaded dense delta. The base tensors are cloned, never
// mutated — they may alias strategy state. The delta is outside input on the
// parameter server: one that does not match the assignment's shapes is a
// protocol error reported to the caller, not a panic.
func ApplyDelta(base, delta []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(delta) != len(base) {
		return nil, fmt.Errorf("delta has %d tensors, assignment has %d", len(delta), len(base))
	}
	out := nn.CloneWeights(base)
	for i := range out {
		if len(delta[i].Data) != len(out[i].Data) {
			return nil, fmt.Errorf("delta tensor %d has %d elements, assignment has %d",
				i, len(delta[i].Data), len(out[i].Data))
		}
		dst, src := out[i].Data, delta[i].Data
		for j := range dst {
			dst[j] += src[j]
		}
	}
	return out, nil
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
			if v < 0 {
				v = -v
			}
			mags[j] = float64(v)
		}
		threshold := prune.SelectKth(mags, total-keep)
		kept := 0
		for j, v := range d.Data {
			av := v
			if av < 0 {
				av = -av
			}
			if float64(av) < threshold || (threshold == 0 && v == 0) || kept >= keep {
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
