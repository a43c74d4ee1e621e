package cluster

import (
	"math"
	"testing"
)

// TestPopulationMatchesDefaultScenario pins the derivation bridge: under
// the default mix, Population.Device(id) must reproduce exactly the device
// Default(n, seed) builds at index id — cluster, mode, distance and the
// first jitter draws — for even and odd sizes. The engine's
// population==cohort compatibility property rests on this.
func TestPopulationMatchesDefaultScenario(t *testing.T) {
	for _, n := range []int{2, 7, 30, 31} {
		seed := int64(12345)
		s := Default(n, seed)
		p, err := Population{Size: n, Seed: seed}.Normalized(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < n; id++ {
			want := s.Devices[id]
			got := p.Device(id)
			if got.ID != want.ID || got.Mode != want.Mode || got.Distance != want.Distance || got.Cluster != want.Cluster {
				t.Fatalf("n=%d device %d: derived %v, scenario %v", n, id, got, want)
			}
			for k := 0; k < 3; k++ {
				gf, wf := got.FLOPS(), want.FLOPS()
				if math.Abs(gf-wf) > 0 {
					t.Fatalf("n=%d device %d: jitter stream diverges (%v vs %v)", n, id, gf, wf)
				}
			}
		}
	}
}

// TestPopulationDerivationIsOrderFree checks random access: materialising
// device 999999 first must not change what device 3 looks like.
func TestPopulationDerivationIsOrderFree(t *testing.T) {
	p, err := Population{Size: 1_000_000}.Normalized(30, 9)
	if err != nil {
		t.Fatal(err)
	}
	a := p.Device(3)
	q, _ := Population{Size: 1_000_000}.Normalized(30, 9)
	_ = q.Device(999_999)
	b := q.Device(3)
	if a.Mode != b.Mode || a.Cluster != b.Cluster {
		t.Fatalf("device 3 depends on materialisation order: %v vs %v", a, b)
	}
	for k := 0; k < 5; k++ {
		if math.Abs(a.FLOPS()-b.FLOPS()) > 0 {
			t.Fatal("jitter stream of device 3 depends on materialisation order")
		}
	}
}

// TestPopulationNormalization covers defaults and rejects.
func TestPopulationNormalization(t *testing.T) {
	p, err := Population{Size: 100}.Normalized(10, 41)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 48 {
		t.Fatalf("default seed %d, want runSeed+7", p.Seed)
	}
	if p.MixA != 0.5 || p.MixB != 0.5 || p.MixC != 0 {
		t.Fatalf("default mix %v/%v/%v", p.MixA, p.MixB, p.MixC)
	}
	if _, err := (Population{Size: 0}).Normalized(1, 1); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := (Population{Size: 5}).Normalized(6, 1); err == nil {
		t.Error("cohort larger than population accepted")
	}
	if _, err := (Population{Size: 5, MixA: 0.9, MixB: 0.3}).Normalized(2, 1); err == nil {
		t.Error("mix summing past 1 accepted")
	}
	o, err := Population{Size: 10, Outage: Outage{Prob: 0.1}}.Normalized(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if o.Outage.Regions != 4 || o.Outage.Period != 3600 || o.Outage.Duration != 1800 {
		t.Fatalf("outage defaults not filled: %+v", o.Outage)
	}
}

// TestClusterOfHonorsMix checks the mix thresholds on a three-way split.
func TestClusterOfHonorsMix(t *testing.T) {
	p, err := Population{Size: 10, MixA: 0.3, MixB: 0.3, MixC: 0.4}.Normalized(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[ClusterID]int{}
	for id := 0; id < p.Size; id++ {
		counts[p.ClusterOf(id)]++
	}
	if counts[ClusterA] != 3 || counts[ClusterB] != 3 || counts[ClusterC] != 4 {
		t.Fatalf("composition %v", counts)
	}
	comp := p.Composition()
	for _, c := range []ClusterID{ClusterA, ClusterB, ClusterC} {
		if comp[c] != counts[c] {
			t.Fatalf("Composition()[%s] = %d, scan found %d", c, comp[c], counts[c])
		}
	}
}

// TestDiurnalGate checks phase stability, the on-fraction, and that the
// gate rotates: a device off now is on half a period later when
// OnFraction is one half.
func TestDiurnalGate(t *testing.T) {
	p, err := Population{
		Size:    1000,
		Diurnal: Diurnal{Period: 86400, OnFraction: 0.5},
	}.Normalized(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	on := 0
	for id := 0; id < p.Size; id++ {
		a := p.DiurnalOn(id, 1000)
		if a != p.DiurnalOn(id, 1000) {
			t.Fatal("DiurnalOn is not deterministic")
		}
		if a == p.DiurnalOn(id, 1000+43200) {
			t.Fatalf("device %d does not flip half a period later", id)
		}
		if a {
			on++
		}
	}
	if on < 400 || on > 600 {
		t.Fatalf("%d/1000 devices awake, want about half", on)
	}
}

// TestOutageGate checks the regional correlation: every device in a region
// shares its outage, draws are window-deterministic, and availability
// recovers after Duration.
func TestOutageGate(t *testing.T) {
	p, err := Population{
		Size:   200,
		Outage: Outage{Regions: 5, Prob: 0.5, Period: 1000, Duration: 400},
	}.Normalized(10, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Find a window where region 0 is out.
	window := int64(-1)
	for w := int64(0); w < 64; w++ {
		if p.outageDraw(0, w) {
			window = w
			break
		}
	}
	if window < 0 {
		t.Fatal("no outage drawn in 64 windows at prob 0.5")
	}
	start := float64(window) * p.Outage.Period
	for id := 0; id < p.Size; id += p.Outage.Regions { // all region-0 devices
		if p.Region(id) != 0 {
			t.Fatalf("device %d not in region 0", id)
		}
		if p.Available(id, start+100) {
			t.Fatalf("device %d available during its region's outage", id)
		}
		if !p.Available(id, start+500) {
			t.Fatalf("device %d still out after the outage lifted", id)
		}
	}
}

// TestAvailableAtWindowEdges pins the outage gate at its boundaries: a drawn
// window darkens its region from w·Period inclusive to w·Period + Duration
// exclusive, back-to-back windows leave no gap when Duration == Period, and
// no window covers negative times.
func TestAvailableAtWindowEdges(t *testing.T) {
	edges := func(dur float64) *Population {
		return &Population{Size: 8, Seed: 5, Outage: Outage{Regions: 2, Prob: 0.5, Period: 10, Duration: dur}}
	}
	// firstWindow returns the first window w >= from whose draws for region 0
	// at w and w+1 are dark and next.
	firstWindow := func(p *Population, from int64, next bool) int64 {
		for w := from; w < from+256; w++ {
			if p.outageDraw(0, w) && p.outageDraw(0, w+1) == next {
				return w
			}
		}
		t.Fatalf("no window with draws (dark, %v) in 256", next)
		return 0
	}
	check := func(p *Population, now float64, want bool) {
		t.Helper()
		if got := p.Available(0, now); got != want {
			t.Errorf("Duration %v: Available(0, %v) = %v, want %v", p.Outage.Duration, now, got, want)
		}
	}

	p := edges(4)
	w := firstWindow(p, 1, false)
	start := float64(w) * p.Outage.Period
	check(p, math.Nextafter(start, math.Inf(-1)), true)
	check(p, start, false)
	check(p, math.Nextafter(start+4, math.Inf(-1)), false)
	check(p, start+4, true)

	p = edges(10)
	w = firstWindow(p, 1, true)
	next := float64(w+1) * p.Outage.Period
	check(p, math.Nextafter(next, math.Inf(-1)), false)
	check(p, next, false)
	w = firstWindow(p, 1, false)
	next = float64(w+1) * p.Outage.Period
	check(p, math.Nextafter(next, math.Inf(-1)), false)
	check(p, next, true)

	// Window 0, and the times before it.
	p = edges(4)
	for !p.outageDraw(0, 0) {
		p.Seed++
	}
	check(p, 0, false)
	check(p, 4, true)
	check(p, -1, true)
	check(p, math.Nextafter(0, math.Inf(-1)), true)
}

// TestSubSeedSpreads is a light avalanche check: adjacent ids must give
// well-separated sub-seeds (no correlated jitter across neighbours).
func TestSubSeedSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for id := int64(0); id < 10000; id++ {
		s := SubSeed(77, id)
		if seen[s] {
			t.Fatalf("sub-seed collision at id %d", id)
		}
		seen[s] = true
	}
	if SubSeed(77, 5) == SubSeed(78, 5) {
		t.Fatal("sub-seed ignores the master seed")
	}
}

// BenchmarkPopulationDevice measures lazy device derivation — the per-slot
// cost of touching a never-before-seen device in a 1M population.
func BenchmarkPopulationDevice(b *testing.B) {
	p, err := Population{Size: 1_000_000}.Normalized(30, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := p.Device(i % p.Size)
		if d == nil {
			b.Fatal("nil device")
		}
	}
}

// BenchmarkPopulationAvailable measures the availability gate alone.
func BenchmarkPopulationAvailable(b *testing.B) {
	p, err := Population{
		Size:    1_000_000,
		Diurnal: Diurnal{Period: 86400, OnFraction: 0.6},
		Outage:  Outage{Regions: 8, Prob: 0.05, Period: 3600, Duration: 1200},
	}.Normalized(30, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Available(i%p.Size, float64(i))
	}
}
