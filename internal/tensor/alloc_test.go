//go:build !race

package tensor

import (
	"math/rand"
	"testing"

	"fedmp/internal/testfd"
)

// The allocation table: every kernel that must not touch the heap once its
// buffers are warm, named by the row whose call reaches it (testfd.AllocTable
// runs it).
var allocTable = []testfd.AllocRow{
	{Fns: []any{gemmBlocked, gemmMacro, packA, packB, packRows, packTransposed}, Setup: func() func() {
		// The blocked side, below the parallel gate, with edge tiles on
		// both sides, in all three storage forms, on every tier.
		const m, k, n = 30, 40, 50
		a, b, c := operand(m*k), operand(k*n), make([]float32, m*n)
		return everyTier(func() {
			gemm(c, a, b, false, false, m, k, n, false)
			gemm(c, a, b, true, false, m, k, n, true)
			gemm(c, a, b, false, true, m, k, n, false)
		})
	}},
	{Fns: []any{microTileGo, microTileFMA, fmaf32, mergeTile}, Setup: func() func() {
		// Called directly: which portable micro-tile a tier runs depends on
		// the machine, and mergeTile only on the assembly tiers.
		const kb = 9
		ap, bp := operand(kb*mrGEMM), operand(kb*nrGEMM)
		c := make([]float32, mrGEMM*nrGEMM)
		return func() {
			microTileGo(c, nrGEMM, ap, bp, kb, false, mrGEMM, nrGEMM)
			microTileFMA(c, nrGEMM, ap, bp, kb, true, 3, 5)
			mergeTile(c, nrGEMM, bp, nrGEMM, 3, 5, true)
		}
	}},
	{Fns: []any{gemmDirect, gemmDirectSIMD, gemmDirectScalar}, Setup: func() func() {
		const m, k, n = 5, 7, 9
		a, b, c := operand(m*k), operand(k*n), make([]float32, m*n)
		return everyTier(func() {
			gemm(c, a, b, false, false, m, k, n, false)
			gemm(c, a, b, true, false, m, k, n, true)
			gemm(c, a, b, false, true, m, k, n, false)
			gemm(c, a, b, true, true, m, k, n, true)
			gemm(c[:n], a[:k], b, false, true, 1, k, n, false)
		})
	}},
	{Fns: []any{ReLU, ReLUGrad, MaxPool2x2, MaxPool2x2Grad, AddBias, AddBiasGrad, SGDStep,
		reluScalar, reluGradScalar, maxPool2x2Scalar, maxPool2x2GradScalar, addBiasScalar, addBiasGradScalar, sgdStepScalar}, Setup: func() func() {
		// sim-cnn30's pool2 shape (rows of four windows, two rows to a
		// vector), 16 bias planes of 24 and SGD with and without momentum,
		// on every tier.
		const rows, outW = 24, 4
		x, y, dx := operand(4*rows*outW), make([]float32, 4*rows*outW), make([]float32, 4*rows*outW)
		out, arg, v := make([]float32, rows*outW), make([]int32, rows*outW), make([]float32, 4*rows*outW)
		return everyTier(func() {
			ReLU(y, x)
			ReLUGrad(dx, x, y)
			MaxPool2x2(out, arg, y, rows, outW)
			MaxPool2x2Grad(dx, out, arg, rows, outW)
			AddBias(y, out[:4*outW], rows)
			AddBiasGrad(out[:4*outW], dx, rows)
			SGDStep(y, x, v, 0.05, 0.9, 2e-3)
			SGDStep(y, x, nil, 0.05, 0, 2e-3)
		})
	}},
	{Fns: []any{AddTo, SubInto, AddRowSums, LSTMCell, LSTMHidden, LSTMGateGrads, ArgMax, (*Tensor).Clip, SubWiden, DivNarrowScale,
		addToScalar, subIntoScalar, addRowSumsScalar, lstmCellScalar, lstmHiddenScalar, lstmGateGradsScalar, clipScalar,
		subWidenScalar, divNarrowScaleScalar}, Setup: func() func() {
		// An LSTM row at the pruned width h = 19 (whole vectors and a tail)
		// and a softmax row of 80 words, on every tier.
		const h, k = 19, 80
		x, y, dz, db := operand(4*h), make([]float32, 4*h), make([]float32, 4*h), make([]float32, 4*h)
		row, g, e := operand(k), make([]float32, k), make([]float64, k)
		clipped := FromSlice(y, 4*h)
		return everyTier(func() {
			AddTo(y, x)
			SubInto(y, y, x)
			AddRowSums(y[:h], x)
			LSTMCell(y[:h], x[:h], x[h:2*h], x[2*h:3*h], x[3*h:])
			LSTMHidden(y[:h], y[h:2*h], x[:h], x[h:2*h])
			LSTMGateGrads(dz, db, x, x[:h], x[h:2*h], x[2*h:3*h], x[3*h:], y[:h], y[h:2*h])
			clipped.Clip(1.5)
			SubWiden(e, row, row[ArgMax(row)])
			DivNarrowScale(g, e, 3.5, 1.0/96)
		})
	}},
	{Fns: []any{matVec}, Setup: func() func() {
		a, x, y := FromSlice(operand(10*16), 10, 16), operand(16), make([]float32, 10)
		return func() { MatVecInto(y, a, x, true) }
	}},
	{Fns: []any{(*PackedA).Pack, (*PackedA).PackRows, (*PackedB).Pack, (*PackedB).PackRows, GEMMPacked}, Setup: func() func() {
		// Both sides of smallGEMMFLOPs, both storage forms and a row stride
		// wider than the rows.
		const m, k, n, ld = 24, 40, 48, 53
		a, b, rows := operand(m*k), operand(k*n), operand(k*ld)
		c := make([]float32, m*n)
		var pa PackedA
		var pb PackedB
		return everyTier(func() {
			pa.Pack(a, false, m, k, n)
			pb.Pack(b, true, m, k, n)
			GEMMPacked(c, &pa, &pb, false)
			pa.PackRows(rows, ld, m/8, k, 4)
			pb.PackRows(rows, ld, m/8, k, 4)
			GEMMPacked(c[:m/8*4], &pa, &pb, true)
			pa.PackRows(rows, ld, m, k, n)
			pb.PackRows(rows, ld, m, k, n)
			GEMMPacked(c, &pa, &pb, true)
		})
	}},
	{Fns: []any{(*IndirectConv).Plan, (*IndirectConv).Load, (*IndirectConv).Mul, (*IndirectConv).mulTile, (*IndirectConv).BeginGradW, (*IndirectConv).AddGradW, (*IndirectConv).EndGradW, (*IndirectConv).GradX}, By: TestPackedOperandsAllocateOnce},
	{Fns: []any{ExpInto, SigmoidInto, TanhInto}, Setup: func() func() {
		// 37 elements: whole vectors and a scalar tail.
		src32, dst32 := operand(37), make([]float32, 37)
		src64, dst64 := make([]float64, 37), make([]float64, 37)
		for i, v := range src32 {
			src64[i] = float64(v)
		}
		return everyTier(func() {
			ExpInto(dst64, src64)
			SigmoidInto(dst32, src32)
			TanhInto(dst32, src32)
		})
	}},
	{Fns: []any{NonzeroCount, AbsSumRows}, Setup: func() func() {
		// 37 elements: whole blocks of eight and a tail; 9 rows of 4: the
		// interleaved body and a one-row tail.
		xs, sums := operand(37), make([]float64, 9)
		return everyTier(func() {
			NonzeroCount(xs)
			AbsSumRows(sums, xs, 4)
		})
	}},
	{Fns: []any{Im2Col, Col2Im}, Setup: func() func() {
		g := ConvGeom{InC: 3, InH: 9, InW: 7, OutC: 4, KH: 3, KW: 3, Stride: 2, Pad: 1}
		x, dx := operand(g.InC*g.InH*g.InW), make([]float32, g.InC*g.InH*g.InW)
		cols := make([]float32, g.InC*g.KH*g.KW*g.OutH()*g.OutW())
		return func() {
			Im2Col(x, g, cols)
			Col2Im(cols, g, dx)
		}
	}},
}

// operand returns n standard normal values.
func operand(n int) []float32 {
	return RandN(rand.New(rand.NewSource(int64(n))), n).Data
}

// everyTier returns a call that runs f under each tier of this machine in
// turn and then restores the active one.
func everyTier(f func()) func() {
	return func() {
		active := activeKernel.Load()
		for _, kern := range kernelTiers {
			activeKernel.Store(kern)
			f()
		}
		activeKernel.Store(active)
	}
}

func TestAllocTable(t *testing.T) { testfd.AllocTable(t, allocTable) }
