package main

import (
	"slices"
	"sync"
	"time"
)

// The reference machine is a few cores of a shared host. Whoever else runs
// there slows every CPU-bound program by 1.2–2.5× for seconds to minutes at a
// time, and the contention flips on a scale of seconds: raw host times of one
// commit spread 20–30 % between runs, wider than any bound a metric may have.
// So every untraced rep carries a speed gauge. While Run/Serve executes, a
// goroutine runs a small fixed piece of work of the benchmark's own every few
// milliseconds and times it; the rep's host times are divided by how much
// slower than nominal that work ran. A host second then reads as a second on
// the quiet reference machine, and the same commit repeats to a few percent.
// The gauge calls nothing in fedmp, so no change to the program can move it.

const (
	// gaugePeriod is the time between two samples; one costs ~0.25 ms, so the
	// gauge takes ~2.5 % of one core, the same on every commit.
	gaugePeriod = 10 * time.Millisecond
	// gaugeNominal is what one sample takes on the quiet reference machine.
	// It only fixes the scale of the normalised times.
	gaugeNominal = 250 * time.Microsecond
	// gaugeMinSamples is the least number of samples an index rests on; a rep
	// too short to collect them takes the rest right after it.
	gaugeMinSamples = 8

	gaugeChainIters = 40_000
	gaugeDim        = 256
	gaugeStreamLen  = 256 << 10 // float32s: 1 MB
)

// gaugeWork is the work one sample times. Its three parts respond differently
// to a busy neighbour, and are sized so that the whole slows down about as
// much as the workloads do (measured on the reference machine: dividing by it
// took the spread of ten runs from 19–29 % to 2–6 % on all four).
type gaugeWork struct {
	mat, vec, out []float32
	stream        []float32
	sink          float32
}

func newGaugeWork() *gaugeWork {
	g := &gaugeWork{
		mat:    make([]float32, gaugeDim*gaugeDim),
		vec:    make([]float32, gaugeDim),
		out:    make([]float32, gaugeDim),
		stream: make([]float32, gaugeStreamLen),
	}
	for i := range g.mat {
		g.mat[i] = float32(i%7) * 0.001
	}
	for i := range g.vec {
		g.vec[i] = 0.5
	}
	for i := range g.stream {
		g.stream[i] = 1
	}
	return g
}

// sample does the work once and returns how long it took.
func (g *gaugeWork) sample() time.Duration {
	start := time.Now()
	// A dependent chain: latency-bound, a neighbour hardly slows it.
	x := float32(1.0001)
	for i := 0; i < gaugeChainIters; i++ {
		x = x*1.0000001 + 1e-9
	}
	// Two matrix-vector products over 256 KB that the workload has pushed out
	// of the near caches since the last sample: throughput- and cache-bound.
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < gaugeDim; i++ {
			row := g.mat[i*gaugeDim : (i+1)*gaugeDim]
			var s0, s1, s2, s3 float32
			for j := 0; j < gaugeDim; j += 4 {
				s0 += row[j] * g.vec[j]
				s1 += row[j+1] * g.vec[j+1]
				s2 += row[j+2] * g.vec[j+2]
				s3 += row[j+3] * g.vec[j+3]
			}
			g.out[i] = s0 + s1 + s2 + s3
		}
		g.vec, g.out = g.out, g.vec
	}
	// A pass over 1 MB: memory-bound.
	var s0, s1, s2, s3 float32
	for j := 0; j+4 <= len(g.stream); j += 4 {
		s0 += g.stream[j]
		s1 += g.stream[j+1]
		s2 += g.stream[j+2]
		s3 += g.stream[j+3]
	}
	g.sink += x + g.vec[0] + s0 + s1 + s2 + s3
	return time.Since(start)
}

// speedGauge samples gaugeWork every gaugePeriod from start to stop.
type speedGauge struct {
	work    *gaugeWork
	quit    chan struct{}
	done    sync.WaitGroup
	samples []float64 // seconds
}

func startSpeedGauge() *speedGauge {
	g := &speedGauge{work: newGaugeWork(), quit: make(chan struct{}), samples: make([]float64, 0, 1024)}
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		tick := time.NewTicker(gaugePeriod)
		defer tick.Stop()
		for {
			select {
			case <-g.quit:
				return
			case <-tick.C:
				g.samples = append(g.samples, g.work.sample().Seconds())
			}
		}
	}()
	return g
}

// stop ends the sampling and returns the speed index of the interval — 1 on
// the quiet reference machine, 1.5 when the gauge's work ran 1.5× slower —
// and the number of samples behind it.
func (g *speedGauge) stop() (index float64, n int) {
	close(g.quit)
	g.done.Wait()
	for len(g.samples) < gaugeMinSamples {
		g.samples = append(g.samples, g.work.sample().Seconds())
	}
	return speedIndex(g.samples), len(g.samples)
}

// speedIndex is the mean of the faster half of the samples over the nominal
// sample time. The slower half is left out because a tenth or more of the
// samples are interrupted half-way (garbage collection stops the goroutine,
// the host takes the core away) and last 10–100× longer: a mean over all of
// them is noisier than the times it is meant to steady.
func speedIndex(samples []float64) float64 {
	s := slices.Clone(samples)
	slices.Sort(s)
	s = s[:(len(s)+1)/2]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s)) / gaugeNominal.Seconds()
}
