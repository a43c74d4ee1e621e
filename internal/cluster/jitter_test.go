package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// pearson is the sample correlation of two equally long series.
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx, my = mx/n, my/n
	var sxy, sxx, syy float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
		syy += (ys[i] - my) * (ys[i] - my)
	}
	return sxy / math.Sqrt(sxx*syy)
}

// sources pairs the device generator with the standard library's: the jitter
// model is defined over N(0,1) draws, so whatever holds for it over
// rand.NewSource must hold over jitterSource.
func sources(seed int64) map[string]*rand.Rand {
	src := jitterSource(SubSeed(seed, 0))
	return map[string]*rand.Rand{"jitterSource": rand.New(&src), "rand.NewSource": rand.New(rand.NewSource(seed))}
}

// TestJitterSourceDrawsStandardNormals checks the innovations: 10⁶ draws have
// mean 0, variance 1 and the normal's 3σ tail mass, each within about five
// standard errors — the same bounds under both generators.
func TestJitterSourceDrawsStandardNormals(t *testing.T) {
	const n = 1_000_000
	for name, rng := range sources(91) {
		var sum, sumSq float64
		tail := 0
		for i := 0; i < n; i++ {
			z := rng.NormFloat64()
			sum += z
			sumSq += z * z
			if math.Abs(z) > 3 {
				tail++
			}
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		pTail := float64(tail) / n
		t.Logf("%s: mean %.5f, variance %.5f, P(|z|>3) %.5f", name, mean, variance, pTail)
		if math.Abs(mean) > 0.005 || math.Abs(variance-1) > 0.007 || math.Abs(pTail-0.0027) > 0.00026 {
			t.Errorf("%s: mean %.5f, variance %.5f, P(|z|>3) %.5f; want 0, 1, 0.00270", name, mean, variance, pTail)
		}
	}
}

// TestJitterProcessIsTheAR1Model checks the process, not a sample of it: the
// log-jitter step drives has stationary variance jitterSigma² and lag-1
// autocorrelation jitterRho, under both generators.
func TestJitterProcessIsTheAR1Model(t *testing.T) {
	const n = 1_000_000
	for name, rng := range sources(92) {
		var state float64
		xs := make([]float64, n)
		for i := range xs {
			step(&state, rng)
			xs[i] = state
		}
		var sumSq float64
		for _, x := range xs {
			sumSq += x * x
		}
		variance := sumSq / n
		rho := pearson(xs[:n-1], xs[1:])
		t.Logf("%s: stationary variance %.5f, lag-1 autocorrelation %.4f", name, variance, rho)
		if math.Abs(variance/(jitterSigma*jitterSigma)-1) > 0.05 || math.Abs(rho-jitterRho) > 0.02 {
			t.Errorf("%s: stationary variance %.5f (want %.5f ± 5%%), lag-1 autocorrelation %.4f (want %.2f ± 0.02)",
				name, variance, jitterSigma*jitterSigma, rho, jitterRho)
		}
	}
}

// TestDeviceStreamsAreUncorrelated pins what a SplitMix64 source must get
// from its seeding: every device draws from one sequence at its own offset,
// so neighbours — in device id and in master seed — must land far enough
// apart that their jitter innovations are unrelated.
func TestDeviceStreamsAreUncorrelated(t *testing.T) {
	const ids, steps = 1000, 64
	draws := func(id int, seed int64) []float64 {
		d := (&Population{Size: ids + 1, Seed: seed, MixB: 1}).Device(id)
		out := make([]float64, steps)
		for i := range out {
			out[i] = d.rng.NormFloat64()
		}
		return out
	}
	var self, nextID, nextSeed []float64
	for id := 0; id < ids; id++ {
		self = append(self, draws(id, 93)...)
		nextID = append(nextID, draws(id+1, 93)...)
		nextSeed = append(nextSeed, draws(id, 94)...)
	}
	if r := pearson(self, nextID); math.Abs(r) > 0.05 {
		t.Errorf("adjacent device ids correlate: r = %.4f", r)
	}
	if r := pearson(self, nextSeed); math.Abs(r) > 0.05 {
		t.Errorf("adjacent master seeds correlate: r = %.4f", r)
	}
}

// TestParkedDeviceResumesElsewhere is the engine's parking contract: a device
// parked after k draws and resumed in another Device value, itself rebound
// from another id, continues its stream bit for bit.
func TestParkedDeviceResumesElsewhere(t *testing.T) {
	p, err := Population{Size: 1000}.Normalized(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	const id = 7 // cluster A: the profile draw is part of what Rebind redoes
	whole, first, other := p.Device(id), p.Device(id), p.Device(900)
	for k := 0; k < 5; k++ {
		if first.ComputeTime(1e6) != whole.ComputeTime(1e6) || first.CommTime(1<<10) != whole.CommTime(1<<10) {
			t.Fatal("two materialisations of one device diverge")
		}
	}
	parked := first.Parked
	other.ComputeTime(1e6)
	p.Rebind(other, id)
	other.Parked = parked
	if other.ID != id || other.Mode != whole.Mode || other.Distance != whole.Distance || other.Cluster != whole.Cluster {
		t.Fatalf("rebound device is %v, want %v", other, whole)
	}
	for k := 0; k < 5; k++ {
		if other.ComputeTime(1e6) != whole.ComputeTime(1e6) || other.CommTime(1<<10) != whole.CommTime(1<<10) {
			t.Fatalf("resumed device diverges from the uninterrupted one at draw %d", k)
		}
	}
}
