package metrics

import "math"

// Streaming constant-memory estimators. The engine's StreamMetrics mode
// replaces the unbounded per-round Stats/Points appends with these: a
// Welford accumulator for mean/variance and a P² marker estimator for
// quantiles, both O(1) memory per tracked statistic regardless of how
// many virtual rounds a run executes. All fields are exported so results
// survive a JSON round trip (checkpoints, result fingerprints in tests).

// Welford is Welford's online mean/variance accumulator.
type Welford struct {
	// N is the observation count.
	N int64
	// Mean is the running mean.
	Mean float64
	// M2 is the running sum of squared deviations from the mean.
	M2 float64
	// Min and Max track the observed range.
	Min float64
	// Max is the largest observation.
	Max float64
}

// Observe folds one value into the accumulator.
func (w *Welford) Observe(x float64) {
	w.N++
	if w.N == 1 {
		w.Min, w.Max = x, x
	} else {
		if x < w.Min {
			w.Min = x
		}
		if x > w.Max {
			w.Max = x
		}
	}
	d := x - w.Mean
	w.Mean += d / float64(w.N)
	w.M2 += d * (x - w.Mean)
}

// Var returns the population variance (zero before two observations).
func (w *Welford) Var() float64 {
	if w.N < 2 {
		return 0
	}
	return w.M2 / float64(w.N)
}

// Sum returns N·Mean, the running total.
func (w *Welford) Sum() float64 { return w.Mean * float64(w.N) }

// P2 estimates a single quantile online with the Jain & Chlamtac P²
// algorithm: five markers whose heights approximate the quantile curve,
// adjusted towards ideal positions with piecewise-parabolic interpolation.
// Memory is constant; the estimate is exact until five observations and
// approximate after.
type P2 struct {
	// Q is the target quantile in (0,1), e.g. 0.95.
	Q float64
	// N is the observation count.
	N int64
	// H are the marker heights (sorted observations until five seen).
	H [5]float64
	// Pos are the integer marker positions (1-based, as in the paper).
	Pos [5]float64
	// Want are the desired marker positions.
	Want [5]float64
}

// NewP2 returns an estimator for quantile q in (0,1).
func NewP2(q float64) P2 {
	if !(q > 0 && q < 1) {
		panic("metrics: P2 quantile must be in (0,1)")
	}
	return P2{Q: q}
}

// Observe folds one value into the estimator.
func (p *P2) Observe(x float64) {
	if p.N < 5 {
		// Insertion into the first five sorted observations.
		i := int(p.N)
		p.H[i] = x
		for j := i; j > 0 && p.H[j] < p.H[j-1]; j-- {
			p.H[j], p.H[j-1] = p.H[j-1], p.H[j]
		}
		p.N++
		if p.N == 5 {
			for k := 0; k < 5; k++ {
				p.Pos[k] = float64(k + 1)
			}
			p.Want[0] = 1
			p.Want[1] = 1 + 2*p.Q
			p.Want[2] = 1 + 4*p.Q
			p.Want[3] = 3 + 2*p.Q
			p.Want[4] = 5
		}
		return
	}
	p.N++
	// Find the marker cell k with H[k] <= x < H[k+1], extending extremes.
	var k int
	switch {
	case x < p.H[0]:
		p.H[0] = x
		k = 0
	case x >= p.H[4]:
		p.H[4] = x
		k = 3
	default:
		k = 3
		for j := 1; j < 5; j++ {
			if x < p.H[j] {
				k = j - 1
				break
			}
		}
	}
	for j := k + 1; j < 5; j++ {
		p.Pos[j]++
	}
	// Desired positions advance by their quantile increments.
	p.Want[1] += p.Q / 2
	p.Want[2] += p.Q
	p.Want[3] += (1 + p.Q) / 2
	p.Want[4]++
	// Adjust the three interior markers.
	for j := 1; j <= 3; j++ {
		d := p.Want[j] - p.Pos[j]
		if (d >= 1 && p.Pos[j+1]-p.Pos[j] > 1) || (d <= -1 && p.Pos[j-1]-p.Pos[j] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := p.parabolic(j, sign)
			if p.H[j-1] < h && h < p.H[j+1] {
				p.H[j] = h
			} else {
				p.H[j] = p.linear(j, sign)
			}
			p.Pos[j] += sign
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for marker j
// moved by sign.
func (p *P2) parabolic(j int, sign float64) float64 {
	n0, n1, n2 := p.Pos[j-1], p.Pos[j], p.Pos[j+1]
	return p.H[j] + sign/(n2-n0)*
		((n1-n0+sign)*(p.H[j+1]-p.H[j])/(n2-n1)+
			(n2-n1-sign)*(p.H[j]-p.H[j-1])/(n1-n0))
}

// linear is the fallback height prediction when the parabola overshoots.
func (p *P2) linear(j int, sign float64) float64 {
	k := j + int(sign)
	return p.H[j] + sign*(p.H[k]-p.H[j])/(p.Pos[k]-p.Pos[j])
}

// Value returns the current quantile estimate.
func (p *P2) Value() float64 {
	if p.N == 0 {
		return 0
	}
	if p.N < 5 {
		// Exact small-sample quantile: nearest-rank over the sorted prefix.
		idx := int(math.Ceil(p.Q*float64(p.N))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= int(p.N) {
			idx = int(p.N) - 1
		}
		return p.H[idx]
	}
	return p.H[2]
}
