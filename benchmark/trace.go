package main

import (
	"cmp"
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"sync"
	"time"

	"fedmp/internal/core"
	"fedmp/internal/nn"
	"fedmp/internal/tensor"
)

// Tracing lives entirely in the benchmark: core.Family, nn.Network and
// core.Source are interfaces, so a wrapping family handed to Run, Serve and
// RunWorker times every call that crosses a layer boundary from outside.
// Spans inside the program are a later change (ROADMAP item 4).

// Seam span names, "<layer>.<call>".
const (
	spanInit    = "zoo.init_weights"
	spanBuild   = "zoo.build"
	spanPlan    = "prune.plan"
	spanSparse  = "prune.sparse"
	spanRecover = "prune.recover"
	spanSources = "data.sources"
	spanTestB   = "data.test_batch"
	spanNext    = "data.next"
	spanTrain   = "nn.train"
	spanEval    = "nn.eval"
)

// span is one timed call into a layer. Every seam span is a child of the
// run's root span (ID 0), which covers the Run/Serve call; offsets are
// nanoseconds since the tracer was made, so set-up spans (the wire workload
// builds its sources before Serve) precede the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Side is "ps" or "worker" on the wire, empty in the simulator.
	Side  string `json:"side,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// traceFile is what a traced run writes out when it ends.
type traceFile struct {
	// Run identifies the run every span belongs to.
	Run   string `json:"run"`
	Spans []span `json:"spans"`
}

// tracer collects spans in memory. The wrappers are called from the parallel
// cohort goroutines and from both ends of the wire, hence the mutex.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 1, 1<<16)}
	t.spans[0] = span{Name: "run", Parent: -1}
	return t
}

// start opens the root span.
func (t *tracer) start() { t.spans[0].Start = int64(time.Since(t.t0)) }

// finish closes the root span.
func (t *tracer) finish() { t.spans[0].End = int64(time.Since(t.t0)) }

// record appends a seam span that began at start and ends now.
func (t *tracer) record(side, name string, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Name: name, Side: side,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// spanTotal is the count and summed duration of one span name.
type spanTotal struct {
	Count int64 `json:"count"`
	Ns    int64 `json:"ns"`
}

// totals sums the seam spans by "[side/]name" (the root is left out).
func (t *tracer) totals() map[string]spanTotal {
	out := make(map[string]spanTotal)
	for _, s := range t.spans[1:] {
		key := s.Name
		if s.Side != "" {
			key = s.Side + "/" + s.Name
		}
		st := out[key]
		st.Count++
		st.Ns += s.End - s.Start
		out[key] = st
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path, run string) error {
	b, err := json.Marshal(traceFile{Run: run, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfNs is a span's duration minus the part of it its children cover:
// children are merged so overlapping ones (parallel goroutines) count once,
// and clipped to the parent's interval.
func selfNs(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return parent.End - parent.Start - covered
}

// tracedFamily times the Family calls. It embeds the wrapped family, so the
// untimed methods (and any a later change adds) pass straight through.
type tracedFamily struct {
	core.Family
	t *tracer
	// side tags the spans "ps" or "worker" on the wire; empty in the
	// simulator.
	side string
}

func (f *tracedFamily) InitWeights(seed int64) []*tensor.Tensor {
	defer f.t.record(f.side, spanInit, time.Now())
	return f.Family.InitWeights(seed)
}

func (f *tracedFamily) BuildNet(desc any, seed int64) (nn.Network, error) {
	start := time.Now()
	net, err := f.Family.BuildNet(desc, seed)
	f.t.record(f.side, spanBuild, start)
	if err != nil {
		return nil, err
	}
	return &tracedNet{Network: net, t: f.t, side: f.side}, nil
}

func (f *tracedFamily) MakePlan(weights []*tensor.Tensor, ratio, jitter float64, rng *rand.Rand) (any, any, []*tensor.Tensor, error) {
	defer f.t.record(f.side, spanPlan, time.Now())
	return f.Family.MakePlan(weights, ratio, jitter, rng)
}

func (f *tracedFamily) Recover(plan any, subW []*tensor.Tensor) ([]*tensor.Tensor, error) {
	defer f.t.record(f.side, spanRecover, time.Now())
	return f.Family.Recover(plan, subW)
}

func (f *tracedFamily) Sparse(weights []*tensor.Tensor, plan any) ([]*tensor.Tensor, error) {
	defer f.t.record(f.side, spanSparse, time.Now())
	return f.Family.Sparse(weights, plan)
}

func (f *tracedFamily) Sources(workers int, nonIID core.NonIID, batchSize int, seed int64) ([]core.Source, error) {
	start := time.Now()
	srcs, err := f.Family.Sources(workers, nonIID, batchSize, seed)
	f.t.record(f.side, spanSources, start)
	if err != nil {
		return nil, err
	}
	for i, s := range srcs {
		srcs[i] = &tracedSource{Source: s, t: f.t, side: f.side}
	}
	return srcs, nil
}

func (f *tracedFamily) TestBatch(limit int) *nn.Batch {
	defer f.t.record(f.side, spanTestB, time.Now())
	return f.Family.TestBatch(limit)
}

type tracedNet struct {
	nn.Network
	t    *tracer
	side string
}

func (n *tracedNet) TrainStep(b *nn.Batch) (float64, int) {
	defer n.t.record(n.side, spanTrain, time.Now())
	return n.Network.TrainStep(b)
}

func (n *tracedNet) Eval(b *nn.Batch) (float64, int) {
	defer n.t.record(n.side, spanEval, time.Now())
	return n.Network.Eval(b)
}

type tracedSource struct {
	core.Source
	t    *tracer
	side string
}

func (s *tracedSource) Next() *nn.Batch {
	defer s.t.record(s.side, spanNext, time.Now())
	return s.Source.Next()
}
