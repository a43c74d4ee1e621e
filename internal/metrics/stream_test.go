package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestWelfordMatchesBatch compares the online accumulator against the
// two-pass mean/variance on a few thousand lognormal samples.
func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var w Welford
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64())
		w.Observe(xs[i])
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var m2 float64
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	if math.Abs(w.Mean-mean) > 1e-9*math.Abs(mean) {
		t.Fatalf("mean %v, want %v", w.Mean, mean)
	}
	if math.Abs(w.Var()-m2/float64(len(xs))) > 1e-7 {
		t.Fatalf("var %v, want %v", w.Var(), m2/float64(len(xs)))
	}
	mn, mx := xs[0], xs[0]
	for _, x := range xs {
		mn = math.Min(mn, x)
		mx = math.Max(mx, x)
	}
	if w.Min != mn || w.Max != mx {
		t.Fatalf("range [%v,%v], want [%v,%v]", w.Min, w.Max, mn, mx)
	}
	if math.Abs(w.Sum()-sum) > 1e-6*math.Abs(sum) {
		t.Fatalf("sum %v, want %v", w.Sum(), sum)
	}
}

// TestP2SmallSampleExact checks the exact nearest-rank behaviour before
// five observations.
func TestP2SmallSampleExact(t *testing.T) {
	p := NewP2(0.5)
	p.Observe(3)
	p.Observe(1)
	p.Observe(2)
	if p.Value() != 2 {
		t.Fatalf("median of {1,2,3} = %v", p.Value())
	}
}

// TestP2ApproximatesQuantiles drives the estimator with 20000 values of
// known and adversarial streams and holds each estimate to a stated bound:
// the relative error of its value against the exact quantile (the accuracy
// class the P² paper reports for i.i.d. input), and the rank error
// |F(estimate) − q| against the stream's empirical distribution. A bound of
// −1 is not checked, with the reason beside the case. Every stream also
// runs with the estimator restarted from its JSON a third of the way in,
// and must end on the same bits as the uninterrupted one: checkpointed runs
// resume their quantiles exactly.
func TestP2ApproximatesQuantiles(t *testing.T) {
	const n = 20000
	bimodal := func(low bool) float64 {
		if low {
			return 10
		}
		return 100
	}
	for _, tc := range []struct {
		name      string
		q         float64
		gen       func(r *rand.Rand, i int) float64
		rel, rank float64
	}{
		{"uniform-p50", 0.5, func(r *rand.Rand, _ int) float64 { return r.Float64() }, 0.05, 0.01},
		{"uniform-p95", 0.95, func(r *rand.Rand, _ int) float64 { return r.Float64() }, 0.05, 0.01},
		{"lognormal-p95", 0.95, func(r *rand.Rand, _ int) float64 { return math.Exp(r.NormFloat64()) }, 0.05, 0.01},
		{"exp-p99", 0.99, func(r *rand.Rand, _ int) float64 { return r.ExpFloat64() }, 0.05, 0.01},
		// Monotone streams: each new value is a new extreme, so the markers
		// only ever move one way; measured error ≤ 1e-4.
		{"sorted-p50", 0.5, func(_ *rand.Rand, i int) float64 { return float64(i) }, 1e-3, 1e-3},
		{"sorted-p99", 0.99, func(_ *rand.Rand, i int) float64 { return float64(i) }, 1e-3, 1e-3},
		{"reverse-p50", 0.5, func(_ *rand.Rand, i int) float64 { return float64(n - i) }, 1e-3, 1e-3},
		{"reverse-p95", 0.95, func(_ *rand.Rand, i int) float64 { return float64(n - i) }, 1e-3, 1e-3},
		// A constant stream is exact. Its rank error is not checked: every
		// value ties, so F jumps from 0 to 1 at it.
		{"constant-p95", 0.95, func(_ *rand.Rand, _ int) float64 { return 3.25 }, 0, -1},
		// Documented failure: the median of two equal modes lies on the
		// edge of the upper one, and P²'s parabola puts the estimate in the
		// empty gap between them (48 against 97.6 here, 51 % off) — a
		// value no sample is near, though its rank is right to 0.4 %.
		{"bimodal-p50", 0.5, func(r *rand.Rand, _ int) float64 { return bimodal(r.Intn(2) == 0) + r.NormFloat64() }, -1, 0.01},
		{"bimodal-p95", 0.95, func(r *rand.Rand, _ int) float64 { return bimodal(r.Intn(2) == 0) + r.NormFloat64() }, 0.01, 0.01},
		// Documented weakness: a stream whose mode moves half-way adapts
		// slowly; the p90 marker is 4 % off in rank (0.3 % in value).
		{"shifted-p90", 0.9, func(r *rand.Rand, i int) float64 { return bimodal(i < n/2) + r.NormFloat64() }, 0.01, 0.05},
		// Heavy tails: Pareto with α = 1.1 (infinite variance) and |Cauchy|
		// (no mean). Far in the tail the value error grows (10 % at the
		// |Cauchy| p99) while the rank stays within 0.1 %.
		{"pareto-p99", 0.99, func(r *rand.Rand, _ int) float64 { return math.Pow(1-r.Float64(), -1/1.1) }, 0.05, 0.002},
		{"cauchy-p50", 0.5, func(r *rand.Rand, _ int) float64 { return math.Abs(math.Tan(math.Pi * (r.Float64() - 0.5))) }, 0.05, 0.01},
		{"cauchy-p99", 0.99, func(r *rand.Rand, _ int) float64 { return math.Abs(math.Tan(math.Pi * (r.Float64() - 0.5))) }, 0.15, 0.002},
	} {
		rng := rand.New(rand.NewSource(99))
		p, resumed := NewP2(tc.q), NewP2(tc.q)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = tc.gen(rng, i)
			p.Observe(xs[i])
			resumed.Observe(xs[i])
			if i == n/3 {
				raw, err := json.Marshal(&resumed)
				if err != nil {
					t.Fatal(err)
				}
				resumed = P2{}
				if err := json.Unmarshal(raw, &resumed); err != nil {
					t.Fatal(err)
				}
			}
		}
		if math.Float64bits(resumed.Value()) != math.Float64bits(p.Value()) {
			t.Errorf("%s: restarted from JSON mid-stream, estimate %v; uninterrupted %v", tc.name, resumed.Value(), p.Value())
		}
		sort.Float64s(xs)
		est, truth := p.Value(), xs[int(tc.q*float64(len(xs)))]
		if rel := math.Abs(est-truth) / math.Abs(truth); tc.rel >= 0 && rel > tc.rel {
			t.Errorf("%s: estimate %v, truth %v (rel err %.4f, bound %g)", tc.name, est, truth, rel, tc.rel)
		}
		if rank := math.Abs(float64(sort.SearchFloat64s(xs, est))/n - tc.q); tc.rank >= 0 && rank > tc.rank {
			t.Errorf("%s: estimate %v has rank error %.4f, bound %g", tc.name, est, rank, tc.rank)
		}
	}
}

// TestP2JSONRoundTrip checks the estimator state survives encoding — the
// property checkpoints and the tests' result fingerprints rely on.
func TestP2JSONRoundTrip(t *testing.T) {
	p := NewP2(0.9)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		p.Observe(rng.Float64())
	}
	raw, err := json.Marshal(&p)
	if err != nil {
		t.Fatal(err)
	}
	var q P2
	if err := json.Unmarshal(raw, &q); err != nil {
		t.Fatal(err)
	}
	if q.Value() != p.Value() {
		t.Fatalf("round-tripped value %v, want %v", q.Value(), p.Value())
	}
	q.Observe(0.5)
	p.Observe(0.5)
	if q.Value() != p.Value() {
		t.Fatalf("round-tripped estimator diverges after next observation")
	}
}

// TestP2RejectsBadQuantile pins the constructor contract.
func TestP2RejectsBadQuantile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewP2(1.5) did not panic")
		}
	}()
	NewP2(1.5)
}
