//go:build !race

package cluster

import (
	"testing"

	"fedmp/internal/testfd"
)

// allocTable is the population's allocation inventory: sampling a cohort
// derives and rebinds devices, which must not allocate, or a million-device
// run pays for every device it touches (testfd.AllocTable runs it).
var allocTable = []testfd.AllocRow{
	{Fns: []any{(*Population).Rebind, (*Population).ClusterOf, SubSeed, splitmix64}, Setup: func() func() {
		p := &Population{Size: 1000, Seed: 3, MixA: 0.5, MixB: 0.3, MixC: 0.2}
		d := p.Device(0)
		return func() {
			for _, id := range []int{1, 600, 999} {
				p.Rebind(d, id)
			}
		}
	}},
	{Fns: []any{(*Population).Available}, Setup: func() func() {
		p := &Population{Size: 1000, Seed: 3,
			Diurnal: Diurnal{Period: 100, OnFraction: 0.7},
			Outage:  Outage{Regions: 4, Prob: 0.5, Period: 10, Duration: 5},
		}
		return func() {
			for id := 0; id < 50; id++ {
				p.Available(id, float64(id))
			}
		}
	}},
	{Fns: []any{(*jitterSource).Uint64, (*jitterSource).Int63}, Setup: func() func() {
		s := jitterSource(SubSeed(3, 7))
		return func() {
			s.Uint64()
			s.Int63()
		}
	}},
}

func TestAllocTable(t *testing.T) { testfd.AllocTable(t, allocTable) }
