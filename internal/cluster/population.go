package cluster

import (
	"fmt"
	"math"
	"math/rand"
)

// Population is a lazily-materialized device population: instead of holding
// N *Device values, it derives any device's full profile — cluster, mode,
// distance and private jitter stream — on demand from (Seed, deviceID) via
// splitmix64 sub-seeding. A million-device population therefore costs a
// few words until a cohort is sampled, and two runs materialising the same
// device always reconstruct bit-identical state regardless of order.
//
// Two availability gates layer churn on top of the profile model: a
// diurnal on/off trace (each device is awake for OnFraction of every
// Period, at a device-specific phase) and correlated regional outages
// (devices share Regions failure domains; each domain goes dark for whole
// windows at a time). Both are pure functions of (Seed, id, time), so the
// engine asks Available about the devices it samples and keeps no
// per-device state. The per-round fault seam (FaultConfig) still applies on
// top, per cohort slot.
type Population struct {
	// Size is the number of devices in the population.
	Size int
	// Seed drives every device derivation and availability draw. Zero
	// means "derive from the run seed" (the engine fills it the same way
	// it seeds a default Scenario).
	Seed int64
	// MixA/MixB/MixC give the cluster composition as fractions. All zero
	// means the paper's default split: half cluster A, half cluster B.
	MixA, MixB, MixC float64
	// Diurnal is the on/off availability trace; zero value disables it.
	Diurnal Diurnal
	// Outage is the correlated regional-outage model; zero value disables.
	Outage Outage
}

// Diurnal models daily on/off availability: a device is reachable while
// frac(now/Period + phase(id)) < OnFraction, with a stable per-device
// phase, so at any instant roughly OnFraction of the population is awake
// and the awake set rotates through the day.
type Diurnal struct {
	// Period is the cycle length in virtual seconds (86400 for a day).
	Period float64
	// OnFraction in (0,1) is the awake share of each period. Values <= 0
	// or >= 1 disable the gate (everyone always on).
	OnFraction float64
}

// Enabled reports whether the gate does anything.
func (d Diurnal) Enabled() bool {
	return d.Period > 0 && d.OnFraction > 0 && d.OnFraction < 1
}

// Outage models correlated regional failures: devices hash into Regions
// failure domains; in every window of Period seconds each domain
// independently goes dark with probability Prob for Duration seconds from
// the window start. All draws are deterministic in (Seed, region, window).
type Outage struct {
	// Regions is the number of failure domains (devices hash by id).
	Regions int
	// Prob is the per-window probability a region goes dark. Zero or
	// negative disables the gate.
	Prob float64
	// Period is the draw-window length in virtual seconds.
	Period float64
	// Duration is how long an outage lasts, clamped to Period.
	Duration float64
}

// Enabled reports whether the gate does anything.
func (o Outage) Enabled() bool {
	return o.Prob > 0 && o.Regions > 0 && o.Period > 0 && o.Duration > 0
}

// Normalized validates p and fills defaults: the run-derived Seed, the
// paper's half-A/half-B mix, and outage regions/duration. cohort is the
// per-round sample size (Config.Workers); it must fit in the population.
func (p Population) Normalized(cohort int, runSeed int64) (Population, error) {
	if p.Size < 1 || p.Size > math.MaxInt32 {
		return p, fmt.Errorf("cluster: population size %d", p.Size)
	}
	if cohort < 1 || cohort > p.Size {
		return p, fmt.Errorf("cluster: cohort %d does not fit population of %d", cohort, p.Size)
	}
	if p.Seed == 0 {
		// Mirror the engine's default-Scenario seeding (run seed + 7) so a
		// population with cohort == size reproduces the legacy round loop.
		p.Seed = runSeed + 7
	}
	if p.MixA < 0 || p.MixB < 0 || p.MixC < 0 {
		return p, fmt.Errorf("cluster: negative cluster mix %v/%v/%v", p.MixA, p.MixB, p.MixC)
	}
	sum := p.MixA + p.MixB + p.MixC
	if sum <= 0 {
		p.MixA, p.MixB, p.MixC = 0.5, 0.5, 0
	} else if math.Abs(sum-1) > 1e-9 {
		return p, fmt.Errorf("cluster: cluster mix sums to %v, want 1", sum)
	}
	if p.Diurnal.Period < 0 || p.Diurnal.OnFraction < 0 {
		return p, fmt.Errorf("cluster: negative diurnal parameters")
	}
	if p.Outage.Prob > 0 {
		if p.Outage.Prob > 1 {
			return p, fmt.Errorf("cluster: outage probability %v > 1", p.Outage.Prob)
		}
		if p.Outage.Regions <= 0 {
			p.Outage.Regions = 4
		}
		if p.Outage.Period <= 0 {
			p.Outage.Period = 3600
		}
		if p.Outage.Duration <= 0 || p.Outage.Duration > p.Outage.Period {
			p.Outage.Duration = p.Outage.Period / 2
		}
	}
	return p, nil
}

// splitmixGamma is SplitMix64's state increment.
const splitmixGamma = 0x9e3779b97f4a7c15

// splitmix64 is one SplitMix64 step: a bijective avalanche mix giving
// O(1) random access into a device-indexed stream of sub-seeds (the
// warehouse-sim per-agent RNG idiom, random-access form).
func splitmix64(x uint64) uint64 {
	x += splitmixGamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SubSeed derives the private RNG seed for stream id under a master seed.
// Every device's jitter RNG is seeded this way, so materialising device i
// never consumes randomness that device j depends on.
func SubSeed(seed int64, id int64) int64 {
	return int64(splitmix64(uint64(seed) + splitmix64(uint64(id))))
}

// unit maps (seed, a, b) to a uniform value in [0,1), deterministically.
func unit(seed int64, a, b int64) float64 {
	h := splitmix64(splitmix64(uint64(seed)+splitmix64(uint64(a))) + uint64(b))
	return float64(h>>11) / (1 << 53)
}

// clusterCounts returns the device count per cluster under the mix.
func (p *Population) clusterCounts() (nA, nB, nC int) {
	nC = int(p.MixC * float64(p.Size))
	nB = int(p.MixB * float64(p.Size))
	nA = p.Size - nB - nC
	return nA, nB, nC
}

// ClusterOf maps a device id to its Fig. 3 cluster: the first block of ids
// is cluster A, then B, then C — the same layout Scenario construction
// uses, so the default mix reproduces Default(n) exactly.
func (p *Population) ClusterOf(id int) ClusterID {
	nA, nB, _ := p.clusterCounts()
	if id < nA {
		return ClusterA
	}
	if id < nA+nB {
		return ClusterB
	}
	return ClusterC
}

// Device materialises device id: profile from its cluster, jitter stream
// from SubSeed(Seed, id). Two calls return equal but independent devices.
func (p *Population) Device(id int) *Device {
	d := NewDevice(id, 0, Near, ClusterA, 0)
	p.Rebind(d, id)
	return d
}

// Rebind makes d the device Device(id) returns, in d's storage: the engine
// keeps one Device per cohort slot and the rest of the population as Parked
// values, so sampling a device allocates nothing.
func (p *Population) Rebind(d *Device, id int) {
	if id < 0 || id >= p.Size {
		panic(fmt.Sprintf("cluster: device %d out of population [0,%d)", id, p.Size))
	}
	d.rebind(id, p.ClusterOf(id), p.Seed)
}

// Region maps a device to its outage failure domain.
func (p *Population) Region(id int) int {
	if !p.Outage.Enabled() {
		return 0
	}
	return id % p.Outage.Regions
}

// outageDraw reports whether the region goes dark in the given window, a
// deterministic draw per (Seed, region, window).
func (p *Population) outageDraw(region int, window int64) bool {
	if !p.Outage.Enabled() || window < 0 {
		return false
	}
	return unit(p.Seed, 0x07a6e+int64(region), window) < p.Outage.Prob
}

// DiurnalOn reports the diurnal gate alone: whether device id is awake at
// virtual time now.
func (p *Population) DiurnalOn(id int, now float64) bool {
	if !p.Diurnal.Enabled() || now < 0 {
		return true
	}
	x := now/p.Diurnal.Period + unit(p.Seed, 0xd1a7, int64(id))
	frac := x - float64(int64(x))
	return frac < p.Diurnal.OnFraction
}

// Available reports whether device id is reachable at virtual time now:
// awake per the diurnal trace and outside its region's drawn outage windows,
// each dark from w·Period up to, not including, w·Period + Duration.
func (p *Population) Available(id int, now float64) bool {
	if !p.DiurnalOn(id, now) {
		return false
	}
	o := p.Outage
	if !o.Enabled() {
		return true
	}
	w := int64(now / o.Period)
	if float64(w)*o.Period > now { // now < 0, or the division rounded up
		w--
	}
	return now >= float64(w)*o.Period+o.Duration || !p.outageDraw(p.Region(id), w)
}

// Composition returns the device count per cluster, mirroring
// Scenario.Composition for logs.
func (p *Population) Composition() map[ClusterID]int {
	nA, nB, nC := p.clusterCounts()
	return map[ClusterID]int{ClusterA: nA, ClusterB: nB, ClusterC: nC}
}

// Rand returns a rand.Rand on the population's sub-seed stream outside the
// device id space, for engine-side draws (cohort sampling) that must not
// collide with device derivations.
func (p *Population) Rand(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(SubSeed(p.Seed, -1-stream)))
}
