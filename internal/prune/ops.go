package prune

import (
	"fmt"
	"slices"
	"strings"

	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// Shrink physically extracts the sub-model the plan describes: a smaller
// spec whose Out counts equal the kept-set sizes, and the corresponding
// weight tensors copied out of the global model (§III-B: "the remaining
// parameters of the modified global model are copied into the sub-model").
// The sub-model is built in sub and subW, a sub-model an earlier Shrink of
// the same global spec returned whose holder no longer reads it: its spec
// and tensors are rewritten and re-dimensioned in place, growing when too
// small and never shrinking. A nil sub and subW allocate.
func Shrink(spec *zoo.Spec, weights []*tensor.Tensor, plan *Plan, sub *zoo.Spec, subW []*tensor.Tensor) (*zoo.Spec, []*tensor.Tensor, error) {
	vs, err := plan.resolved(spec)
	if err != nil {
		return nil, nil, err
	}
	if err := checkTensors(spec, vs, weights); err != nil {
		return nil, nil, err
	}
	var name string
	if sub != nil {
		name = sub.Name
	}
	if base, ok := strings.CutSuffix(name, "-sub"); !ok || base != spec.Name {
		name = spec.Name + "-sub"
	}
	sub = spec.CloneInto(sub)
	sub.Name = name
	setWidths(sub.Layers, vs)

	if len(subW) != len(weights) {
		subW = make([]*tensor.Tensor, len(weights))
	}
	for i := range vs {
		v := &vs[i]
		p := v.paramStart
		switch v.l.Kind {
		case zoo.KindConv, zoo.KindDense:
			subW[p] = extract(subW[p], weights[p], v.keptOut, v.keptIn)
			subW[p+1] = extract(subW[p+1], weights[p+1], v.keptOut, nil)
		case zoo.KindBatchNorm:
			for k := p; k < p+4; k++ {
				subW[k] = extract(subW[k], weights[k], v.keptOut, nil)
			}
		}
	}
	if err := sub.Validate(); err != nil {
		return nil, nil, fmt.Errorf("prune: shrunk spec invalid: %w", err)
	}
	return sub, subW, nil
}

// setWidths rewrites the Out of every convolution and dense layer to its
// kept-set size. vs lists the parameter-carrying layers in walk order — a
// residual block, then its body — which is the order this recursion meets
// them in; it returns the visits it did not consume.
func setWidths(layers []zoo.LayerSpec, vs []visit) []visit {
	for i := range layers {
		switch l := &layers[i]; l.Kind {
		case zoo.KindConv, zoo.KindDense:
			l.Out = len(vs[0].keptOut)
			vs = vs[1:]
		case zoo.KindBatchNorm:
			vs = vs[1:]
		case zoo.KindResidual:
			vs = setWidths(l.Body, vs)
		}
	}
	return vs
}

// Accumulate adds one participant's term of the R2SP average (§III-C) to
// acc, a global-shaped running sum: at every coordinate the plan kept, the
// trained sub-model's value; at every pruned coordinate, base's value — the
// global model the sub-model was cut from, which is what recovering the
// sub-model and adding its residual model would put there. A nil base adds
// nothing at pruned coordinates (the BSP scheme of Fig. 7). Each coordinate
// receives exactly one addend per call, so calling it participant by
// participant reproduces the reference sum Σ(Recover + ResidualOf) bit for
// bit for finite base values — without materialising either model.
//
// Only block part of parts of every tensor's rows is touched (RowBlock), so
// parts goroutines, each walking the participants in order over its own
// block, form the same sums as one goroutine with parts 1. The checks read
// the plan's resolved walk and the tensors' lengths only, so they fail alike
// for every block.
func Accumulate(spec *zoo.Spec, acc, subWeights, base []*tensor.Tensor, plan *Plan, part, parts int) error {
	vs, err := plan.resolved(spec)
	if err != nil {
		return err
	}
	if err := checkTensors(spec, vs, acc); err != nil {
		return err
	}
	if err := checkModels(acc, subWeights, base, part, parts); err != nil {
		return err
	}
	for i := range vs {
		v := &vs[i]
		var err error
		switch v.l.Kind {
		case zoo.KindConv, zoo.KindDense:
			per := 1
			if v.l.Kind == zoo.KindConv {
				per = v.l.K * v.l.K
			}
			if err = accumulateTensor(acc, subWeights, base, v.paramStart, v.fullOut, v.fullIn, per, v.keptOut, v.keptIn, part, parts); err == nil {
				err = accumulateTensor(acc, subWeights, base, v.paramStart+1, v.fullOut, 1, 1, v.keptOut, nil, part, parts)
			}
		case zoo.KindBatchNorm:
			for k := 0; k < 4 && err == nil; k++ {
				err = accumulateTensor(acc, subWeights, base, v.paramStart+k, v.fullOut, 1, 1, v.keptOut, nil, part, parts)
			}
		}
		if err != nil {
			return fmt.Errorf("prune: layer %q: %w", v.l.Name, err)
		}
	}
	return nil
}

// RowBlock returns block part of parts of a tensor's rows — its first
// dimension — as the half-open range [lo, hi): contiguous blocks, in order,
// that cover the rows once and differ in length by at most one.
func RowBlock(rows, part, parts int) (lo, hi int) {
	return rows * part / parts, rows * (part + 1) / parts
}

// checkModels checks the tensor counts of one Accumulate call and its block.
func checkModels(acc, sub, base []*tensor.Tensor, part, parts int) error {
	if base != nil && len(base) != len(acc) {
		return fmt.Errorf("prune: base model has %d tensors, sum has %d", len(base), len(acc))
	}
	if len(sub) != len(acc) {
		return fmt.Errorf("prune: sub-model has %d tensors, plan implies %d", len(sub), len(acc))
	}
	if part < 0 || part >= parts {
		return fmt.Errorf("prune: row block %d of %d", part, parts)
	}
	return nil
}

// accumulateTensor checks tensor t of the three lists against the
// [rows, cols, per] layout and runs the accumulate kernel on its row block.
// A nil keptRows keeps every row.
func accumulateTensor(acc, sub, base []*tensor.Tensor, t, rows, cols, per int, keptRows, keptCols []int, part, parts int) error {
	keptWidth, keptHeight := cols, rows
	if keptCols != nil {
		keptWidth = len(keptCols)
	}
	if keptRows != nil {
		keptHeight = len(keptRows)
	}
	if len(acc[t].Data) != rows*cols*per || len(acc[t].Shape) == 0 || acc[t].Shape[0] != rows {
		return fmt.Errorf("sum tensor %d is %v, want %d rows of %d", t, acc[t].Shape, rows, cols*per)
	}
	if len(sub[t].Data) != keptHeight*keptWidth*per {
		return fmt.Errorf("sub-model tensor %d has %d elements, want %d", t, len(sub[t].Data), keptHeight*keptWidth*per)
	}
	var b []float32
	if base != nil {
		if b = base[t].Data; len(b) != len(acc[t].Data) {
			return fmt.Errorf("base tensor %d has %d elements, want %d", t, len(b), len(acc[t].Data))
		}
	}
	lo, hi := RowBlock(rows, part, parts)
	accumulate(acc[t].Data, sub[t].Data, b, cols, per, keptRows, keptCols, lo, hi)
	return nil
}

// accumulate is the fused recover-and-add kernel over rows [lo, hi) of one
// tensor laid out [rows, cols, per] (per = the K·K taps of a convolution
// kernel, 1 otherwise): acc += sub at (keptRows × keptCols), acc += base
// everywhere else, or nothing there when base is nil. keptRows and keptCols
// are sorted ascending; a nil keptRows keeps every row and a nil keptCols
// every column. sub is the compact [len(keptRows), len(keptCols), per]
// sub-model tensor; the block's first kept row is found by binary search.
// Whole rows are straight slice adds. Under kept columns the columns are
// walked once, as maximal runs of kept or of pruned indices — so the flatten
// expansion's contiguous channel blocks are straight slice adds too — and
// each run is added over every kept row of the block. Every coordinate
// receives one addend, so the order of the adds cannot show.
func accumulate(acc, sub, base []float32, cols, per int, keptRows, keptCols []int, lo, hi int) {
	width := cols * per
	subWidth := width
	if keptCols != nil {
		subWidth = len(keptCols) * per
	}
	first := lo
	if keptRows != nil {
		first, _ = slices.BinarySearch(keptRows, lo)
	}
	ri := first
	for r := lo; r < hi; r++ {
		if keptRows != nil && (ri == len(keptRows) || keptRows[ri] != r) {
			if base != nil {
				tensor.AddTo(acc[r*width:(r+1)*width], base[r*width:(r+1)*width])
			}
			continue
		}
		if keptCols == nil {
			tensor.AddTo(acc[r*width:(r+1)*width], sub[ri*subWidth:(ri+1)*subWidth])
		}
		ri++
	}
	if keptCols == nil || first == ri {
		return
	}
	for c, ci := 0, 0; c < cols; {
		if ci < len(keptCols) && keptCols[ci] == c {
			run := 1
			for ci+run < len(keptCols) && keptCols[ci+run] == c+run {
				run++
			}
			for k := first; k < ri; k++ {
				r := k
				if keptRows != nil {
					r = keptRows[k]
				}
				tensor.AddTo(acc[r*width+c*per:r*width+(c+run)*per], sub[k*subWidth+ci*per:k*subWidth+(ci+run)*per])
			}
			c, ci = c+run, ci+run
			continue
		}
		end := cols
		if ci < len(keptCols) {
			end = keptCols[ci]
		}
		for k := first; base != nil && k < ri; k++ {
			r := k
			if keptRows != nil {
				r = keptRows[k]
			}
			tensor.AddTo(acc[r*width+c*per:r*width+end*per], base[r*width+c*per:r*width+end*per])
		}
		c = end
	}
}

// Sparse returns global-shaped weight copies with every pruned coordinate
// set to zero — the paper's "sparse model": same network structure as the
// global model, logically pruned parameters zeroed.
func Sparse(spec *zoo.Spec, weights []*tensor.Tensor, plan *Plan) ([]*tensor.Tensor, error) {
	vs, err := plan.resolved(spec)
	if err != nil {
		return nil, err
	}
	if err := checkTensors(spec, vs, weights); err != nil {
		return nil, err
	}
	out := make([]*tensor.Tensor, len(weights))
	for i, w := range weights {
		out[i] = tensor.New(w.Shape...)
	}
	for i := range vs {
		scatterLayer(out, weights, &vs[i])
	}
	return out, nil
}

// Recover scatters a sub-model's weights back into global shape, zero
// elsewhere — R2SP's "model recovery" step, using the index sets the plan
// stores on the parameter server.
func Recover(spec *zoo.Spec, subWeights []*tensor.Tensor, plan *Plan) ([]*tensor.Tensor, error) {
	vs, err := plan.resolved(spec)
	if err != nil {
		return nil, err
	}
	// Allocate global-shaped outputs from the *global* geometry.
	var out []*tensor.Tensor
	cursor := 0
	for i := range vs {
		v := &vs[i]
		n := paramTensors(v.l.Kind)
		if cursor+n > len(subWeights) {
			return nil, fmt.Errorf("prune: sub-model weight list too short at %q", v.l.Name)
		}
		switch v.l.Kind {
		case zoo.KindConv:
			w := tensor.New(v.fullOut, v.fullIn, v.l.K, v.l.K)
			scatterConv(w, subWeights[cursor], v.keptOut, v.keptIn)
			b := tensor.New(v.fullOut)
			scatterVec(b, subWeights[cursor+1], v.keptOut)
			out = append(out, w, b)
		case zoo.KindBatchNorm:
			for k := 0; k < 4; k++ {
				g := tensor.New(v.fullOut)
				scatterVec(g, subWeights[cursor+k], v.keptOut)
				out = append(out, g)
			}
		case zoo.KindDense:
			w := tensor.New(v.fullOut, v.fullIn)
			scatterMat(w, subWeights[cursor], v.keptOut, v.keptIn)
			b := tensor.New(v.fullOut)
			scatterVec(b, subWeights[cursor+1], v.keptOut)
			out = append(out, w, b)
		}
		cursor += n
	}
	if cursor != len(subWeights) {
		return nil, fmt.Errorf("prune: sub-model has %d tensors, plan implies %d", len(subWeights), cursor)
	}
	return out, nil
}

// ResidualOf returns global − sparse: the R2SP residual model holding the
// global values of every pruned coordinate and zero at kept coordinates.
func ResidualOf(global, sparse []*tensor.Tensor) []*tensor.Tensor {
	if len(global) != len(sparse) {
		panic(fmt.Sprintf("prune: ResidualOf length mismatch %d vs %d", len(global), len(sparse)))
	}
	out := make([]*tensor.Tensor, len(global))
	for i := range global {
		r := global[i].Clone()
		r.Sub(sparse[i])
		out[i] = r
	}
	return out
}

// PruneError returns Q = ‖x − sparse(x)‖², the pruning error of Lemma 1,
// measuring how well the sparse model approximates the global model.
func PruneError(global, sparse []*tensor.Tensor) float64 {
	var q float64
	for i := range global {
		for j, v := range global[i].Data {
			d := float64(v - sparse[i].Data[j])
			q += d * d
		}
	}
	return q
}

// extract copies the kept rows (first dimension) and kept columns (second)
// of w — a vector, a matrix, or a [O,I,KH,KW] kernel whose taps come whole —
// into dst, re-dimensioned (tensor.EnsureCap). A dst too small for the sub-
// tensor is replaced by one with room for all of w, so a slot's buffer is
// allocated once whatever ratios later reach it. A nil set keeps everything;
// a vector is one row, its kept rows copied as kept columns.
func extract(dst, w *tensor.Tensor, keptRows, keptCols []int) *tensor.Tensor {
	var dims [4]int
	shape := append(dims[:0], w.Shape...)
	if keptRows != nil {
		shape[0] = len(keptRows)
	}
	if len(shape) == 1 {
		out := tensor.EnsureCap(dst, len(w.Data), shape...)
		gatherRows(out.Data, w.Data, len(w.Data), 1, nil, keptRows)
		return out
	}
	if keptCols != nil {
		shape[1] = len(keptCols)
	}
	out := tensor.EnsureCap(dst, len(w.Data), shape...)
	gatherRows(out.Data, w.Data, w.Shape[1], tensor.Prod(w.Shape[2:]), keptRows, keptCols)
	return out
}

// scatterConv writes sub [o,i,kh,kw] into full at (keptOut × keptIn).
func scatterConv(full, sub *tensor.Tensor, keptOut, keptIn []int) {
	kh, kw := full.Shape[2], full.Shape[3]
	inC := full.Shape[1]
	per := kh * kw
	for oi, o := range keptOut {
		for ii, in := range keptIn {
			src := sub.Data[(oi*len(keptIn)+ii)*per : (oi*len(keptIn)+ii+1)*per]
			dst := full.Data[(o*inC+in)*per : (o*inC+in+1)*per]
			copy(dst, src)
		}
	}
}

// gatherRows is the extraction kernel: it copies the kept rows' kept columns
// of src, laid out [rows, cols, per], into dst, laid out [len(keptRows),
// len(keptCols), per] — a nil keptRows keeps every row, a nil keptCols every
// column. keptCols is walked as maximal runs of consecutive indices, each
// one copy per kept row (a flattened channel's H·W features, a convolution
// filter's kept input planes), the runs accumulate adds over too.
func gatherRows(dst, src []float32, cols, per int, keptRows, keptCols []int) {
	width := cols * per
	subWidth := width
	if keptCols != nil {
		subWidth = len(keptCols) * per
	}
	rows := len(keptRows)
	if keptRows == nil {
		rows = len(src) / max(width, 1)
	}
	for k := 0; k < rows; k++ {
		r := k
		if keptRows != nil {
			r = keptRows[k]
		}
		row, out := src[r*width:(r+1)*width], dst[k*subWidth:(k+1)*subWidth]
		if keptCols == nil {
			copy(out, row)
			continue
		}
		for ci := 0; ci < len(keptCols); {
			c, run := keptCols[ci], 1
			for ci+run < len(keptCols) && keptCols[ci+run] == c+run {
				run++
			}
			copy(out[ci*per:(ci+run)*per], row[c*per:(c+run)*per])
			ci += run
		}
	}
}

// scatterMat writes sub into full at (keptOut × keptIn).
func scatterMat(full, sub *tensor.Tensor, keptOut, keptIn []int) {
	in := full.Shape[1]
	for oi, o := range keptOut {
		row := full.Data[o*in : (o+1)*in]
		src := sub.Data[oi*len(keptIn) : (oi+1)*len(keptIn)]
		for ii, idx := range keptIn {
			row[idx] = src[ii]
		}
	}
}

// scatterVec writes sub into full at kept.
func scatterVec(full, sub *tensor.Tensor, kept []int) {
	for i, idx := range kept {
		full.Data[idx] = sub.Data[i]
	}
}

// scatterLayer copies the kept coordinates of one layer's tensors from src
// into dst (both global-shaped), realising the sparse model layer by layer.
func scatterLayer(dst, src []*tensor.Tensor, v *visit) {
	switch v.l.Kind {
	case zoo.KindConv:
		w := src[v.paramStart]
		kh, kw := w.Shape[2], w.Shape[3]
		inC := w.Shape[1]
		per := kh * kw
		dw := dst[v.paramStart]
		for _, o := range v.keptOut {
			for _, in := range v.keptIn {
				off := (o*inC + in) * per
				copy(dw.Data[off:off+per], w.Data[off:off+per])
			}
		}
		for _, o := range v.keptOut {
			dst[v.paramStart+1].Data[o] = src[v.paramStart+1].Data[o]
		}
	case zoo.KindBatchNorm:
		for k := 0; k < 4; k++ {
			for _, o := range v.keptOut {
				dst[v.paramStart+k].Data[o] = src[v.paramStart+k].Data[o]
			}
		}
	case zoo.KindDense:
		w := src[v.paramStart]
		in := w.Shape[1]
		dw := dst[v.paramStart]
		for _, o := range v.keptOut {
			row := w.Data[o*in : (o+1)*in]
			drow := dw.Data[o*in : (o+1)*in]
			for _, idx := range v.keptIn {
				drow[idx] = row[idx]
			}
		}
		for _, o := range v.keptOut {
			dst[v.paramStart+1].Data[o] = src[v.paramStart+1].Data[o]
		}
	}
}
