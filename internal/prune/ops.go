package prune

import (
	"fmt"

	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// Shrink physically extracts the sub-model the plan describes: a smaller
// spec whose Out counts equal the kept-set sizes, and the corresponding
// weight tensors copied out of the global model (§III-B: "the remaining
// parameters of the modified global model are copied into the sub-model").
func Shrink(spec *zoo.Spec, weights []*tensor.Tensor, plan *Plan) (*zoo.Spec, []*tensor.Tensor, error) {
	vs, err := plan.resolved(spec)
	if err != nil {
		return nil, nil, err
	}
	if err := checkTensors(spec, vs, weights); err != nil {
		return nil, nil, err
	}
	sub := spec.Clone()
	sub.Name = spec.Name + "-sub"
	setWidths(sub.Layers, vs)

	out := make([]*tensor.Tensor, 0, len(weights))
	for i := range vs {
		v := &vs[i]
		switch v.l.Kind {
		case zoo.KindConv:
			w, b := weights[v.paramStart], weights[v.paramStart+1]
			out = append(out, extractConv(w, v.keptOut, v.keptIn), extractVec(b, v.keptOut))
		case zoo.KindBatchNorm:
			for k := 0; k < 4; k++ {
				out = append(out, extractVec(weights[v.paramStart+k], v.keptOut))
			}
		case zoo.KindDense:
			w, b := weights[v.paramStart], weights[v.paramStart+1]
			out = append(out, extractMat(w, v.keptOut, v.keptIn), extractVec(b, v.keptOut))
		}
	}
	if err := sub.Validate(); err != nil {
		return nil, nil, fmt.Errorf("prune: shrunk spec invalid: %w", err)
	}
	return sub, out, nil
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
func Accumulate(spec *zoo.Spec, acc, subWeights, base []*tensor.Tensor, plan *Plan) error {
	vs, err := plan.resolved(spec)
	if err != nil {
		return err
	}
	if err := checkTensors(spec, vs, acc); err != nil {
		return err
	}
	if base != nil && len(base) != len(acc) {
		return fmt.Errorf("prune: base model has %d tensors, sum has %d", len(base), len(acc))
	}
	if len(subWeights) != len(acc) {
		return fmt.Errorf("prune: sub-model has %d tensors, plan implies %d", len(subWeights), len(acc))
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
			if err = accumulateTensor(acc, subWeights, base, v.paramStart, v.fullOut, v.fullIn, per, v.keptOut, v.keptIn); err == nil {
				err = accumulateTensor(acc, subWeights, base, v.paramStart+1, v.fullOut, 1, 1, v.keptOut, nil)
			}
		case zoo.KindBatchNorm:
			for k := 0; k < 4 && err == nil; k++ {
				err = accumulateTensor(acc, subWeights, base, v.paramStart+k, v.fullOut, 1, 1, v.keptOut, nil)
			}
		}
		if err != nil {
			return fmt.Errorf("prune: layer %q: %w", v.l.Name, err)
		}
	}
	return nil
}

// accumulateTensor checks tensor t of the three lists against the
// [rows, cols, per] layout and runs the accumulate kernel on it.
func accumulateTensor(acc, sub, base []*tensor.Tensor, t, rows, cols, per int, keptRows, keptCols []int) error {
	keptWidth := cols
	if keptCols != nil {
		keptWidth = len(keptCols)
	}
	if len(acc[t].Data) != rows*cols*per {
		return fmt.Errorf("sum tensor %d has %d elements, want %d", t, len(acc[t].Data), rows*cols*per)
	}
	if len(sub[t].Data) != len(keptRows)*keptWidth*per {
		return fmt.Errorf("sub-model tensor %d has %d elements, want %d", t, len(sub[t].Data), len(keptRows)*keptWidth*per)
	}
	var b []float32
	if base != nil {
		if b = base[t].Data; len(b) != len(acc[t].Data) {
			return fmt.Errorf("base tensor %d has %d elements, want %d", t, len(b), len(acc[t].Data))
		}
	}
	accumulate(acc[t].Data, sub[t].Data, b, cols, per, keptRows, keptCols)
	return nil
}

// accumulate is the fused recover-and-add kernel over one tensor laid out
// [rows, cols, per] (per = the K·K taps of a convolution kernel, 1
// otherwise): acc += sub at (keptRows × keptCols), acc += base everywhere
// else, or nothing there when base is nil. keptRows and keptCols are sorted
// ascending; a nil keptCols keeps every column. sub is the compact
// [len(keptRows), len(keptCols), per] sub-model tensor. Columns are walked
// as maximal runs of kept or of pruned indices, so the flatten expansion's
// contiguous channel blocks and whole pruned rows are straight slice adds.
//
//fedmp:allocfree
func accumulate(acc, sub, base []float32, cols, per int, keptRows, keptCols []int) {
	width := cols * per
	subWidth := width
	if keptCols != nil {
		subWidth = len(keptCols) * per
	}
	ri := 0
	for r := 0; r*width < len(acc); r++ {
		arow := acc[r*width : (r+1)*width]
		var brow []float32
		if base != nil {
			brow = base[r*width : (r+1)*width]
		}
		if ri == len(keptRows) || keptRows[ri] != r {
			if brow != nil {
				addInto(arow, brow)
			}
			continue
		}
		srow := sub[ri*subWidth : (ri+1)*subWidth]
		ri++
		if keptCols == nil {
			addInto(arow, srow)
			continue
		}
		for c, ci := 0, 0; c < cols; {
			if ci < len(keptCols) && keptCols[ci] == c {
				run := 1
				for ci+run < len(keptCols) && keptCols[ci+run] == c+run {
					run++
				}
				addInto(arow[c*per:(c+run)*per], srow[ci*per:(ci+run)*per])
				c, ci = c+run, ci+run
				continue
			}
			end := cols
			if ci < len(keptCols) {
				end = keptCols[ci]
			}
			if brow != nil {
				addInto(arow[c*per:end*per], brow[c*per:end*per])
			}
			c = end
		}
	}
}

// addInto adds src to dst element by element.
//
//fedmp:allocfree
func addInto(dst, src []float32) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
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

// extractConv copies W[keptOut, keptIn, :, :] out of a [O,I,KH,KW] kernel.
func extractConv(w *tensor.Tensor, keptOut, keptIn []int) *tensor.Tensor {
	kh, kw := w.Shape[2], w.Shape[3]
	inC := w.Shape[1]
	per := kh * kw
	out := tensor.New(len(keptOut), len(keptIn), kh, kw)
	for oi, o := range keptOut {
		for ii, in := range keptIn {
			src := w.Data[(o*inC+in)*per : (o*inC+in+1)*per]
			dst := out.Data[(oi*len(keptIn)+ii)*per : (oi*len(keptIn)+ii+1)*per]
			copy(dst, src)
		}
	}
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

// extractMat copies W[keptOut, keptIn] out of a [O,I] matrix.
func extractMat(w *tensor.Tensor, keptOut, keptIn []int) *tensor.Tensor {
	in := w.Shape[1]
	out := tensor.New(len(keptOut), len(keptIn))
	for oi, o := range keptOut {
		row := w.Data[o*in : (o+1)*in]
		dst := out.Data[oi*len(keptIn) : (oi+1)*len(keptIn)]
		for ii, idx := range keptIn {
			dst[ii] = row[idx]
		}
	}
	return out
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

// extractVec copies v[kept].
func extractVec(v *tensor.Tensor, kept []int) *tensor.Tensor {
	out := tensor.New(len(kept))
	for i, idx := range kept {
		out.Data[i] = v.Data[idx]
	}
	return out
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
