package main

import "testing"

// BenchmarkRoundCosts is the `go test` twin of the -sim-json round_costs
// rows, one sub-benchmark per row:
//
//	go test -run '^$' -bench RoundCosts -benchmem ./cmd/fedmp-bench
func BenchmarkRoundCosts(b *testing.B) {
	for _, c := range roundCostBenches {
		b.Run(c.name, c.run)
	}
}
