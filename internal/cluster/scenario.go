package cluster

import "fmt"

// Level names the heterogeneity scenarios of §V-E.
type Level string

// Heterogeneity levels: Low selects all workers from cluster A, Medium
// splits between A and B, High spans A, B and C.
const (
	LevelLow    Level = "low"
	LevelMedium Level = "medium"
	LevelHigh   Level = "high"
)

// Scenario is a set of simulated devices participating in one experiment.
type Scenario struct {
	Devices []*Device
}

// rebind makes d device id of the given Fig. 3 cluster, as new: cluster A
// devices run mode 0 or 1 near the PS, cluster B mode 2 at mid distance,
// cluster C mode 3 far away. Every device's jitter stream is sub-seeded from
// (seed, id), so materialising one never consumes another's randomness — what
// Population's lazy derivation and parallel cohort training both depend on.
func (d *Device) rebind(id int, c ClusterID, seed int64) {
	d.ID, d.Cluster, d.Parked = id, c, Parked{stream: jitterSource(SubSeed(seed, int64(id)))}
	switch c {
	case ClusterA:
		d.Mode, d.Distance = Mode(d.rng.Intn(2)), Near
	case ClusterB:
		d.Mode, d.Distance = 2, Mid
	case ClusterC:
		d.Mode, d.Distance = 3, Far
	default:
		panic(fmt.Sprintf("cluster: unknown cluster %q", c))
	}
}

// Custom builds a scenario with the given number of devices per cluster.
func Custom(nA, nB, nC int, seed int64) *Scenario {
	if nA < 0 || nB < 0 || nC < 0 || nA+nB+nC == 0 {
		panic(fmt.Sprintf("cluster: invalid composition %d/%d/%d", nA, nB, nC))
	}
	s := &Scenario{}
	id := 0
	for _, part := range []struct {
		c ClusterID
		n int
	}{{ClusterA, nA}, {ClusterB, nB}, {ClusterC, nC}} {
		for k := 0; k < part.n; k++ {
			d := NewDevice(id, 0, Near, part.c, 0)
			d.rebind(id, part.c, seed)
			s.Devices = append(s.Devices, d)
			id++
		}
	}
	return s
}

// New builds the paper's scenario for a heterogeneity level and worker
// count: Low = all A; Medium = half A, half B; High = 30% A, 30% B, 40% C
// (the §V-E composition 3/3/4 generalised).
func New(level Level, n int, seed int64) (*Scenario, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: worker count %d", n)
	}
	switch level {
	case LevelLow:
		return Custom(n, 0, 0, seed), nil
	case LevelMedium:
		return Custom(n-n/2, n/2, 0, seed), nil
	case LevelHigh:
		a := (n*3 + 9) / 10
		b := (n*3 + 9) / 10
		if a+b >= n {
			a, b = n/3, n/3
		}
		return Custom(a, b, n-a-b, seed), nil
	default:
		return nil, fmt.Errorf("cluster: unknown heterogeneity level %q", level)
	}
}

// Default builds the paper's default setup (§V-A): n workers, half from
// cluster A and half from cluster B.
func Default(n int, seed int64) *Scenario {
	return Custom(n-n/2, n/2, 0, seed)
}

// Composition returns the device count per cluster, for logs and the Fig. 3
// reproduction.
func (s *Scenario) Composition() map[ClusterID]int {
	out := map[ClusterID]int{}
	for _, d := range s.Devices {
		out[d.Cluster]++
	}
	return out
}

// N returns the number of devices.
func (s *Scenario) N() int { return len(s.Devices) }
