package bandit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// syntheticReward returns a noisy reward peaked at optimum, mimicking the
// shape of Eq. 8: selecting a ratio matching the worker's capability yields
// the highest reward.
func syntheticReward(ratio, optimum float64, rng *rand.Rand) float64 {
	// Eq. 8 rewards (ΔLoss over a time gap) are unnormalised and typically
	// well above 1 in the paper's regime; scale accordingly so the
	// confidence padding does not drown the signal.
	d := ratio - optimum
	return 5*math.Exp(-d*d/0.02) + rng.NormFloat64()*0.25
}

func TestAgentConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []Config{
		{Lambda: 0, Theta: 0.02},
		{Lambda: 1, Theta: 0.02},
		{Lambda: 0.9, Theta: 0},
		{Lambda: 0.9, Theta: 1},
		{Lambda: 0.9, Theta: 0.02, MaxRatio: 1.5},
		{Lambda: 0.9, Theta: 0.02, MaxRatio: -0.1},
	}
	for i, cfg := range bad {
		if _, err := NewAgent(cfg, rng); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
	if _, err := NewAgent(DefaultConfig(), rng); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestAgentSelectRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig()
	a := MustAgent(cfg, rng)
	for i := 0; i < 200; i++ {
		r := a.Select()
		if r < 0 || r >= cfg.MaxRatio {
			t.Fatalf("selected ratio %v outside [0,%v)", r, cfg.MaxRatio)
		}
		a.Observe(syntheticReward(r, 0.5, rng))
	}
}

func TestAgentAlternationEnforced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := MustAgent(DefaultConfig(), rng)
	a.Select()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Select did not panic")
			}
		}()
		a.Select()
	}()
	a.Observe(1)
	defer func() {
		if recover() == nil {
			t.Error("Observe without Select did not panic")
		}
	}()
	a.Observe(1)
}

func TestAgentTreeGrowsAndRespectsTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := Config{Lambda: 0.95, Theta: 0.1, MaxRatio: 1}
	a := MustAgent(cfg, rng)
	for i := 0; i < 300; i++ {
		r := a.Select()
		a.Observe(syntheticReward(r, 0.3, rng))
	}
	regions := a.Regions()
	if len(regions) < 4 {
		t.Errorf("partition has only %d leaves after 300 rounds", len(regions))
	}
	// Leaves tile [0, 1) exactly.
	lo := 0.0
	for _, r := range regions {
		if math.Abs(r.Lo-lo) > 1e-12 {
			t.Fatalf("partition gap/overlap at %v (leaf starts at %v)", lo, r.Lo)
		}
		lo = r.Hi
	}
	if math.Abs(lo-1) > 1e-12 {
		t.Errorf("partition ends at %v, want 1", lo)
	}
	// A leaf is only split while its diameter exceeds θ, so after a split
	// each child has diameter > θ/2 is not guaranteed — but no leaf should
	// ever have been split below a parent of diameter ≤ θ. Verify no leaf
	// is absurdly small relative to θ.
	for _, r := range regions {
		if r.Diameter() <= 0 {
			t.Errorf("degenerate leaf %+v", r)
		}
	}
}

func TestAgentConvergesToOptimalRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// The discounted pull mass is 1/(1−λ); it must comfortably exceed the
	// leaf count (≈ MaxRatio/θ) or the padding term degenerates the policy
	// to round-robin — hence λ = 0.98 with θ = 0.05 here.
	cfg := Config{Lambda: 0.98, Theta: 0.05, MaxRatio: 1}
	a := MustAgent(cfg, rng)
	const optimum = 0.6
	const rounds = 600
	near, lateN := 0, 0
	for i := 0; i < rounds; i++ {
		r := a.Select()
		a.Observe(syntheticReward(r, optimum, rng))
		if i >= rounds*3/4 {
			lateN++
			if math.Abs(r-optimum) < 0.15 {
				near++
			}
		}
	}
	if frac := float64(near) / float64(lateN); frac < 0.45 {
		t.Errorf("late near-optimum pull rate %.2f, want > 0.45 (uniform is 0.30)", frac)
	}
}

func TestAgentAdaptsToDrift(t *testing.T) {
	// The discount factor should let the agent track a shifted optimum —
	// the heterogeneity-drift scenario the paper motivates E-UCB with.
	rng := rand.New(rand.NewSource(6))
	a := MustAgent(Config{Lambda: 0.98, Theta: 0.05, MaxRatio: 1}, rng)
	for i := 0; i < 400; i++ {
		r := a.Select()
		a.Observe(syntheticReward(r, 0.2, rng))
	}
	near, lateN := 0, 0
	for i := 0; i < 600; i++ {
		r := a.Select()
		a.Observe(syntheticReward(r, 0.75, rng))
		if i >= 400 {
			lateN++
			if math.Abs(r-0.75) < 0.15 {
				near++
			}
		}
	}
	if frac := float64(near) / float64(lateN); frac < 0.45 {
		t.Errorf("post-drift near-optimum pull rate %.2f, want > 0.45", frac)
	}
}

func TestAgentConcentratesPullsNearOptimum(t *testing.T) {
	// Discounted UCB keeps a floor of exploration forever (discounted
	// counts are bounded by 1/(1−λ)), so per-round regret does not vanish;
	// the guarantee worth testing is that late-phase pulls concentrate in
	// the optimal neighbourhood far above the uniform-sampling rate.
	rng := rand.New(rand.NewSource(7))
	a := MustAgent(Config{Lambda: 0.98, Theta: 0.05, MaxRatio: 1}, rng)
	const optimum = 0.4
	const rounds = 500
	near, lateN := 0, 0
	for i := 0; i < rounds; i++ {
		r := a.Select()
		a.Observe(syntheticReward(r, optimum, rng))
		if i >= rounds/2 {
			lateN++
			if math.Abs(r-optimum) < 0.15 {
				near++
			}
		}
	}
	// Uniform sampling would land in the ±0.15 window 30% of the time.
	if frac := float64(near) / float64(lateN); frac < 0.45 {
		t.Errorf("late near-optimum pull rate %.2f, want > 0.45 (uniform is 0.30)", frac)
	}
}

// Property: after any pull sequence the partition tiles [0, MaxRatio).
func TestPartitionTilesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := MustAgent(Config{Lambda: 0.95, Theta: 0.01, MaxRatio: 0.9}, rng)
		for i := 0; i < 100; i++ {
			r := a.Select()
			a.Observe(rng.Float64())
			_ = r
		}
		regions := a.Regions()
		lo := 0.0
		for _, r := range regions {
			if math.Abs(r.Lo-lo) > 1e-9 || r.Hi <= r.Lo {
				return false
			}
			lo = r.Hi
		}
		return math.Abs(lo-0.9) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDiscreteUCBFindsBestArm(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	arms := GridArms(10, 1)
	d, err := NewDiscreteUCB(arms)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[float64]int{}
	for i := 0; i < 500; i++ {
		r := d.Select()
		d.Observe(syntheticReward(r, 0.5, rng))
		if i > 250 {
			counts[r]++
		}
	}
	if counts[0.5] < 125 {
		t.Errorf("best arm pulled only %d/250 times late", counts[0.5])
	}
}

func TestDiscreteUCBValidation(t *testing.T) {
	if _, err := NewDiscreteUCB(nil); err == nil {
		t.Error("empty arm set accepted")
	}
	if _, err := NewDiscreteUCB([]float64{1.0}); err == nil {
		t.Error("arm 1.0 accepted")
	}
}

func TestEpsilonGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e, err := NewEpsilonGreedy(0.1, GridArms(10, 1), rng)
	if err != nil {
		t.Fatal(err)
	}
	var lateSum float64
	var lateN int
	for i := 0; i < 500; i++ {
		r := e.Select()
		e.Observe(syntheticReward(r, 0.3, rng))
		if i > 300 {
			lateSum += r
			lateN++
		}
	}
	if avg := lateSum / float64(lateN); math.Abs(avg-0.3) > 0.2 {
		t.Errorf("epsilon-greedy late average %v, want near 0.3", avg)
	}
	if _, err := NewEpsilonGreedy(1.5, GridArms(4, 1), rng); err == nil {
		t.Error("epsilon 1.5 accepted")
	}
	if _, err := NewEpsilonGreedy(0.1, nil, rng); err == nil {
		t.Error("empty arms accepted")
	}
}

func TestFixedPolicy(t *testing.T) {
	f := Fixed{Ratio: 0.42}
	for i := 0; i < 5; i++ {
		if f.Select() != 0.42 {
			t.Fatal("fixed policy drifted")
		}
		f.Observe(1)
	}
}

func TestGridArms(t *testing.T) {
	arms := GridArms(5, 1)
	want := []float64{0, 0.2, 0.4, 0.6, 0.8}
	for i := range want {
		if math.Abs(arms[i]-want[i]) > 1e-12 {
			t.Errorf("GridArms = %v, want %v", arms, want)
		}
	}
}

// statsRef is the Eq. 9 statistic as Select computed it before the one-pass
// stats — one history scan per region, one math.Pow per pull — kept as the
// reference the one pass is held to.
func statsRef(a *Agent, r Region) (n, avg float64) {
	var wsum float64
	for _, p := range a.history {
		if p.ratio < r.Lo || p.ratio >= r.Hi {
			continue
		}
		w := math.Pow(a.cfg.Lambda, float64(a.round-p.round))
		n += w
		wsum += w * p.reward
	}
	if n > 0 {
		avg = wsum / n
	}
	return n, avg
}

// TestStatsMatchPerRegionScan runs an agent through splits, the history trim
// and a restore that ages every pull past the discount table, and demands the
// bits of the per-region scan from the one-pass statistics before every
// Select.
func TestStatsMatchPerRegionScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfg := DefaultConfig()
	cfg.Theta = 0.01
	a := MustAgent(cfg, rng)
	for step := 0; step < 600; step++ {
		ns, sums := a.stats()
		for i, r := range a.regions {
			n, avg := statsRef(a, r)
			var got float64
			if ns[i] > 0 {
				got = sums[i] / ns[i]
			}
			if math.Float64bits(ns[i]) != math.Float64bits(n) || math.Float64bits(got) != math.Float64bits(avg) {
				t.Fatalf("step %d region %v: one pass (%v, %v), per-region scan (%v, %v)", step, r, ns[i], got, n, avg)
			}
		}
		ratio := a.Select()
		a.Observe(syntheticReward(ratio, 0.4, rng))
		if step == 300 {
			st := a.Export()
			st.Round += 1000
			if err := a.Restore(st); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(a.regions) < 20 || len(a.pow) > a.maxAge+2 {
		t.Fatalf("%d regions, discount table of %d for max age %d", len(a.regions), len(a.pow), a.maxAge)
	}
}

// BenchmarkAgentSelect measures one Select/Observe step of an agent whose
// partition and history have reached their steady size.
func BenchmarkAgentSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	a := MustAgent(DefaultConfig(), rng)
	step := func() { a.Observe(syntheticReward(a.Select(), 0.4, rng)) }
	for i := 0; i < 500; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
