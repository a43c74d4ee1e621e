package main

import (
	"math"
	"slices"
)

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile is the linearly interpolated p-quantile (p in [0,1]) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles as Python's
// statistics.quantiles(xs, n=4) gives them — the steadiness measure the
// benchmark is accepted by. It is 0 for fewer than two values.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}
