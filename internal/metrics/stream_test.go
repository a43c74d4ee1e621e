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

// TestP2ApproximatesQuantiles drives the estimator with known
// distributions and requires the estimate within a few percent of the true
// quantile — the accuracy class the P² paper reports.
func TestP2ApproximatesQuantiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    float64
		gen  func(r *rand.Rand) float64
	}{
		{"uniform-p50", 0.5, func(r *rand.Rand) float64 { return r.Float64() }},
		{"uniform-p95", 0.95, func(r *rand.Rand) float64 { return r.Float64() }},
		{"lognormal-p95", 0.95, func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()) }},
		{"exp-p99", 0.99, func(r *rand.Rand) float64 { return r.ExpFloat64() }},
	} {
		rng := rand.New(rand.NewSource(99))
		p := NewP2(tc.q)
		xs := make([]float64, 20000)
		for i := range xs {
			xs[i] = tc.gen(rng)
			p.Observe(xs[i])
		}
		sort.Float64s(xs)
		truth := xs[int(tc.q*float64(len(xs)))]
		rel := math.Abs(p.Value()-truth) / truth
		if rel > 0.05 {
			t.Errorf("%s: estimate %v, truth %v (rel err %.3f)", tc.name, p.Value(), truth, rel)
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
