package core

import (
	"math/rand"
	"testing"

	"fedmp/internal/nn"
	"fedmp/internal/prune"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// TestLemma1DeviationBound empirically checks Lemma 1 of the paper: under
// R2SP, the deviation between the virtual average model x̄(t) and any local
// model xₙ(t) within a round satisfies
//
//	E‖x̄(t) − xₙ(t)‖² ≤ 6γ²τ²G² + 3Qₙ
//
// where G bounds the stochastic gradient norm and Qₙ = ‖x − sparse(x)‖² is
// the pruning error. We run one round of FedMP-style local training on the
// tiny family, measure every quantity, and assert the bound holds for every
// worker. (G is measured as the max per-iteration gradient norm, so the
// inequality must hold exactly, not just in expectation.)
func TestLemma1DeviationBound(t *testing.T) {
	fam := tinyFamily()
	const (
		workers = 4
		tau     = 4
		gamma   = 0.05
	)
	spec := fam.Spec
	global := fam.InitWeights(1)
	srcs, err := fam.Sources(workers, NonIID{}, 6, 17)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	type workerState struct {
		local     []*tensor.Tensor // recovered-to-full local model + residual
		qn        float64
		gradMaxSq float64
	}
	states := make([]*workerState, workers)
	for w := 0; w < workers; w++ {
		ratio := 0.2 * float64(w) // heterogeneous ratios 0, 0.2, 0.4, 0.6
		plan, err := prune.BuildPlan(spec, global, ratio)
		if err != nil {
			t.Fatal(err)
		}
		subSpec, subW, err := prune.Shrink(spec, global, plan, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := prune.Sparse(spec, global, plan)
		if err != nil {
			t.Fatal(err)
		}
		residual := prune.ResidualOf(global, sparse)

		net, err := zoo.Build(subSpec, rng)
		if err != nil {
			t.Fatal(err)
		}
		nn.SetWeights(net, subW)
		// Plain SGD, no momentum: the lemma's update model (Eq. 3).
		st := &workerState{qn: prune.PruneError(global, sparse)}
		for it := 0; it < tau; it++ {
			net.TrainStep(srcs[w].Next())
			var gSq float64
			for _, p := range net.Params() {
				if p.Frozen {
					continue
				}
				gSq += p.Grad.SqNorm()
			}
			if gSq > st.gradMaxSq {
				st.gradMaxSq = gSq
			}
			for _, p := range net.Params() {
				if p.Frozen {
					continue
				}
				p.W.AddScaled(-gamma, p.Grad)
			}
		}
		rec, err := prune.Recover(spec, nn.GetWeights(net), plan)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rec {
			rec[i].Add(residual[i])
		}
		st.local = rec
		states[w] = st
	}

	// x̄(t): the average of the locals (Eq. 2 with residuals folded in).
	avg := make([]*tensor.Tensor, len(global))
	for i := range avg {
		acc := tensor.New(global[i].Shape...)
		for _, st := range states {
			acc.Add(st.local[i])
		}
		acc.Scale(1 / float32(workers))
		avg[i] = acc
	}

	// G²: the largest measured per-iteration squared gradient norm.
	var g2 float64
	for _, st := range states {
		if st.gradMaxSq > g2 {
			g2 = st.gradMaxSq
		}
	}
	for w, st := range states {
		var dev float64
		for i := range avg {
			d := avg[i].Clone()
			d.Sub(st.local[i])
			dev += d.SqNorm()
		}
		bound := 6*gamma*gamma*float64(tau*tau)*g2 + 3*st.qn
		if dev > bound {
			t.Errorf("worker %d: deviation %.4f exceeds Lemma 1 bound %.4f (G²=%.3f, Q=%.3f)",
				w, dev, bound, g2, st.qn)
		}
		if w > 0 && st.qn == 0 {
			t.Errorf("worker %d: pruning error unexpectedly zero at ratio %.1f", w, 0.2*float64(w))
		}
	}
}

// TestTheorem1PruningErrorTerm checks the qualitative content of Theorem 1:
// the convergence bound's pruning-error term grows with the pruning ratio,
// i.e. more aggressive pruning loosens the bound (the trade-off §IV-A
// formalises).
func TestTheorem1PruningErrorTerm(t *testing.T) {
	fam := tinyFamily()
	global := fam.InitWeights(2)
	var prev float64
	for _, ratio := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		plan, err := prune.BuildPlan(fam.Spec, global, ratio)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := prune.Sparse(fam.Spec, global, plan)
		if err != nil {
			t.Fatal(err)
		}
		q := prune.PruneError(global, sparse)
		if q < prev {
			t.Errorf("pruning error decreased from %.4f to %.4f at ratio %.1f", prev, q, ratio)
		}
		prev = q
	}
	if prev == 0 {
		t.Error("pruning error zero even at ratio 0.8")
	}
}
