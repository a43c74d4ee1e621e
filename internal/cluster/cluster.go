// Package cluster models the heterogeneous edge testbed of the paper's
// evaluation: 30 NVIDIA Jetson TX2 workers with four computing modes
// (Table II) placed at different distances from the parameter server
// (Fig. 3), partitioned into clusters A, B and C.
//
// No Jetson hardware is available here, so the package is the substitution
// substrate (DESIGN.md §1): each device converts analytic training FLOPs
// into virtual computation time through a mode-dependent effective
// throughput, and payload bytes into virtual communication time through a
// distance-dependent wireless bandwidth. Both are modulated by slowly
// drifting AR(1) jitter, giving the bandit the same noisy, heterogeneous,
// time-varying completion-time signal the physical testbed produces.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
)

// Mode is a Jetson TX2 computing mode from Table II of the paper. Mode 0 is
// the fastest; capability decreases with the mode number.
type Mode int

// ModeSpec describes one Table II row and the effective training-throughput
// factor we derive from its CPU/GPU clocks.
type ModeSpec struct {
	// Denver2 and CortexA57 describe the CPU clusters ("—" when disabled).
	Denver2, CortexA57 string
	// GPUGHz is the GPU clock.
	GPUGHz float64
	// SpeedFactor is the relative effective training throughput (mode 0 = 1).
	SpeedFactor float64
}

// ModeSpecs reproduces Table II with derived speed factors.
var ModeSpecs = [4]ModeSpec{
	{Denver2: "2.0 GHz×2", CortexA57: "2.0 GHz×4", GPUGHz: 1.30, SpeedFactor: 1.00},
	{Denver2: "—", CortexA57: "2.0 GHz×4", GPUGHz: 1.12, SpeedFactor: 0.75},
	{Denver2: "1.4 GHz×2", CortexA57: "1.4 GHz×4", GPUGHz: 1.12, SpeedFactor: 0.60},
	{Denver2: "—", CortexA57: "1.2 GHz×4", GPUGHz: 0.85, SpeedFactor: 0.40},
}

// Distance is a coarse location class standing in for the physical
// placements of Fig. 3; wireless signal strength falls with distance.
type Distance int

// Distance classes and their baseline link bandwidths.
const (
	Near Distance = iota
	Mid
	Far
)

// bandwidthBits maps a distance class to the baseline wireless bandwidth in
// bits per second. Values are chosen so communication and computation times
// are the same order of magnitude for the scaled models, matching the
// paper's observation that both matter (Fig. 5).
func bandwidthBits(d Distance) float64 {
	switch d {
	case Near:
		return 1.6e6
	case Mid:
		return 0.8e6
	case Far:
		return 0.32e6
	default:
		panic(fmt.Sprintf("cluster: unknown distance class %d", d))
	}
}

// baseFLOPS is the mode-0 effective training throughput in FLOP/s. The
// absolute value only sets the virtual time unit; relative factors carry the
// heterogeneity.
const baseFLOPS = 12e6

// AR(1) jitter parameters: multiplicative lognormal noise with slow drift,
// modelling interference and background load.
const (
	jitterRho   = 0.9
	jitterSigma = 0.15
)

// ClusterID labels the three worker clusters of Fig. 3.
type ClusterID string

// Cluster labels.
const (
	ClusterA ClusterID = "A" // modes 0–1, near
	ClusterB ClusterID = "B" // mode 2, mid distance
	ClusterC ClusterID = "C" // mode 3, far
)

// Device is one simulated edge worker. Not safe for concurrent use, and not
// to be copied: the copy's rng would draw from the original's stream.
type Device struct {
	// ID is the worker index.
	ID int
	// Mode is the Table II computing mode.
	Mode Mode
	// Distance is the location class.
	Distance Distance
	// Cluster is the Fig. 3 cluster the device belongs to.
	Cluster ClusterID

	Parked
	rng *rand.Rand // draws from Parked.stream
}

// Parked is the part of a device that running it changes — both AR(1) jitter
// states and the position of its private stream — in 24 pointer-free bytes.
// Assigning a saved one to any Device rebound to the same id
// (Population.Rebind) resumes that device where it was saved.
type Parked struct {
	compJitter, commJitter float64
	stream                 jitterSource
}

// jitterSource is the SplitMix64 rand.Source64 under every device's jitter:
// 8 bytes seeded by assignment, where math/rand's own source is a 4.9 KB table
// that takes ~12 µs to seed. Every device draws from the one SplitMix64
// sequence, at the offset SubSeed scatters it to.
type jitterSource uint64

// Uint64 implements rand.Source64.
func (s *jitterSource) Uint64() uint64 {
	out := splitmix64(uint64(*s))
	*s += splitmixGamma
	return out
}

// Int63 implements rand.Source.
func (s *jitterSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *jitterSource) Seed(seed int64) { *s = jitterSource(seed) }

// NewDevice constructs a device with the given capability profile, its jitter
// stream seeded with seed.
func NewDevice(id int, mode Mode, dist Distance, cluster ClusterID, seed int64) *Device {
	if mode < 0 || int(mode) >= len(ModeSpecs) {
		panic(fmt.Sprintf("cluster: mode %d out of range", mode))
	}
	d := &Device{ID: id, Mode: mode, Distance: dist, Cluster: cluster}
	d.stream.Seed(seed)
	d.rng = rand.New(&d.stream)
	return d
}

// step advances an AR(1) jitter state and returns its multiplicative factor.
func step(state *float64, rng *rand.Rand) float64 {
	*state = jitterRho**state + math.Sqrt(1-jitterRho*jitterRho)*jitterSigma*rng.NormFloat64()
	return math.Exp(*state)
}

// FLOPS returns the device's current effective training throughput,
// advancing the computation jitter.
func (d *Device) FLOPS() float64 {
	return baseFLOPS * ModeSpecs[d.Mode].SpeedFactor / step(&d.compJitter, d.rng)
}

// Bandwidth returns the device's current link bandwidth in bit/s, advancing
// the communication jitter.
func (d *Device) Bandwidth() float64 {
	return bandwidthBits(d.Distance) / step(&d.commJitter, d.rng)
}

// ComputeTime converts training FLOPs into seconds of virtual computation
// time at the device's current speed.
func (d *Device) ComputeTime(flops float64) float64 {
	if flops < 0 {
		panic("cluster: negative FLOPs")
	}
	return flops / d.FLOPS()
}

// CommTime converts a payload of bytes into seconds of virtual transfer time
// at the device's current bandwidth.
func (d *Device) CommTime(bytes int64) float64 {
	if bytes < 0 {
		panic("cluster: negative payload")
	}
	return float64(bytes) * 8 / d.Bandwidth()
}

// String describes the device for logs and the Fig. 3 reproduction.
func (d *Device) String() string {
	return fmt.Sprintf("worker %d: cluster %s, mode %d, distance %d", d.ID, d.Cluster, d.Mode, d.Distance)
}
