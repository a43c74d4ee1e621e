package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"fedmp/internal/bandit"
	"fedmp/internal/cluster"
	"fedmp/internal/core"
	"fedmp/internal/metrics"
	"fedmp/internal/nn"
	"fedmp/internal/simsched"
	"fedmp/internal/tensor"
	"fedmp/internal/transport/checkpoint"
	"fedmp/internal/transport/codec"
)

// Probes time a layer's public functions directly, at the workload's own
// shapes: the sub-model the workload's family yields at probeRatio, its
// assignment frame and its checkpoint record. They exist for layers whose
// calls do not cross the Family/Network/Source seam, so the traced run cannot
// see them.

// probeRatio is the pruning ratio the probes shrink the model at: the wire
// workload's fixed ratio, and the middle of E-UCB's [0, 0.8] range.
const probeRatio = wireRatio

// probeIters is the least number of calls one probe times.
const probeIters = 200

// firstErr remembers the first error of a timed loop, which cannot stop for
// one.
type firstErr struct{ err error }

func (f *firstErr) keep(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// prober times calls: each probe makes at least iters of them.
type prober struct{ iters int }

// timeOp returns fn's mean duration in nanoseconds over at least p.iters
// calls, and as many more as fit in iters/4 milliseconds, after a short
// warm-up.
func (p prober) timeOp(fn func()) float64 {
	for i := 0; i < 3; i++ {
		fn()
	}
	minTime := time.Duration(p.iters) * time.Millisecond / 4
	n := 0
	start := time.Now()
	for n < p.iters || time.Since(start) < minTime {
		fn()
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// runProbes measures every probe metric for the workload's family and config
// in this process.
func runProbes(w *workload, seed int64, scratch string, iters int) (map[string]float64, error) {
	p := prober{iters: iters}
	out := make(map[string]float64)
	rng := rand.New(rand.NewSource(seed))

	// tensor: the square GEMM and MatVec at a size between the workloads'
	// layer shapes and the kernel benchmarks' 512.
	const n = 256
	a, b := tensor.RandN(rng, n, n), tensor.RandN(rng, n, n)
	c := tensor.New(n, n)
	ns := p.timeOp(func() { tensor.MatMulInto(c, a, b, false) })
	out["tensor.gemm256_gflops"] = 2 * n * n * n / ns
	x, y := make([]float32, n), make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	ns = p.timeOp(func() { tensor.MatVecInto(y, a, x, false) })
	out["tensor.matvec256_gflops"] = 2 * n * n / ns

	fam, err := w.family(seed)
	if err != nil {
		return nil, err
	}
	cfg := w.config(seed)
	cfg.Rounds = w.rounds
	cfg, err = core.Normalize(cfg)
	if err != nil {
		return nil, err
	}
	global := fam.InitWeights(seed)
	_, subDesc, subW, err := fam.MakePlan(global, probeRatio, 0, nil)
	if err != nil {
		return nil, err
	}

	// nn: one optimiser step and one weight copy on the sub-model, the two
	// per-iteration costs inside core's self time.
	net, err := fam.BuildNet(subDesc, seed)
	if err != nil {
		return nil, err
	}
	nn.SetWeights(net, subW)
	srcs, err := fam.Sources(cfg.Workers, cfg.NonIID, cfg.BatchSize, seed)
	if err != nil {
		return nil, err
	}
	net.TrainStep(srcs[0].Next())
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	out["nn.sgd_step_us"] = p.timeOp(func() { opt.Step(net.Params()) }) / 1e3
	out["nn.weights_copy_us"] = p.timeOp(func() { runtime.KeepAlive(nn.GetWeights(net)) }) / 1e3

	// bandit: E-UCB's cost grows with its history, so the agent starts over
	// after as many decisions as the workload has rounds.
	var agent *bandit.Agent
	decisions := 0
	out["bandit.select_observe_ns"] = p.timeOp(func() {
		if decisions%w.rounds == 0 {
			agent = bandit.MustAgent(cfg.Bandit, rng)
		}
		decisions++
		r := agent.Select()
		agent.Observe(1 - r)
	})

	pop, err := cluster.Population{
		Size:    1_000_000,
		Diurnal: cluster.Diurnal{Period: 6, OnFraction: 0.8},
		Outage:  cluster.Outage{Regions: 4, Prob: 0.15, Period: 3, Duration: 1.5},
	}.Normalized(cfg.Workers, seed)
	if err != nil {
		return nil, err
	}
	id := 0
	out["cluster.device_us"] = p.timeOp(func() {
		runtime.KeepAlive(pop.Device(id % pop.Size))
		id += 7919
	}) / 1e3
	avail := false
	out["cluster.available_ns"] = p.timeOp(func() {
		avail = pop.Available(id%pop.Size, float64(id%600)/10) != avail
		id += 7919
	})

	sched := simsched.New(1024)
	for i := 0; i < 1024; i++ {
		sched.Push(float64(i%97), simsched.KindWorkerDone, int64(i))
	}
	out["simsched.push_pop_ns"] = p.timeOp(func() {
		ev, _ := sched.Pop()
		sched.Push(ev.Time+float64(id%13), simsched.KindWorkerDone, ev.ID)
		id++
	})

	var wf metrics.Welford
	p50, p95, p99 := metrics.NewP2(0.5), metrics.NewP2(0.95), metrics.NewP2(0.99)
	out["metrics.stream_observe_ns"] = p.timeOp(func() {
		v := float64(id%1009) / 100
		wf.Observe(v)
		p50.Observe(v)
		p95.Observe(v)
		p99.Observe(v)
		id++
	})

	if err := p.codec(out, subDesc, subW, cfg.LocalIters); err != nil {
		return nil, err
	}
	if err := p.checkpoint(out, global, cfg.Workers, scratch); err != nil {
		return nil, err
	}
	return out, nil
}

// codec times the frame codec on the workload's assignment envelope.
func (p prober) codec(out map[string]float64, desc any, weights []*tensor.Tensor, iters int) error {
	env := &codec.Envelope{Kind: codec.KindAssign, Assign: &codec.Assign{
		Round: 1, Desc: desc, Weights: weights, Iters: iters, Ratio: probeRatio,
	}}
	var frame bytes.Buffer
	if _, err := codec.WriteFrame(&frame, env); err != nil {
		return err
	}
	out["codec.assign_frame_kb"] = float64(frame.Len()) / 1e3

	var op firstErr
	out["codec.framebytes_us"] = p.timeOp(func() {
		_, err := codec.FrameBytes(env)
		op.keep(err)
	}) / 1e3
	out["codec.encode_us_per_frame"] = p.timeOp(func() {
		_, err := codec.WriteFrame(io.Discard, env)
		op.keep(err)
	}) / 1e3
	q8 := *env
	q8.Quantize = true
	out["codec.encode_q8_us_per_frame"] = p.timeOp(func() {
		_, err := codec.WriteFrame(io.Discard, &q8)
		op.keep(err)
	}) / 1e3

	rd := bytes.NewReader(frame.Bytes())
	decode := func() {
		rd.Reset(frame.Bytes())
		e, _, err := codec.ReadFrame(rd)
		op.keep(err)
		runtime.KeepAlive(e)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < p.iters; i++ {
		decode()
	}
	runtime.ReadMemStats(&m1)
	out["codec.decode_allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / float64(p.iters)
	out["codec.decode_us_per_frame"] = p.timeOp(decode) / 1e3

	// The recycling decoder the worker receive loop runs on: an endless
	// stream of the same frame.
	dec := codec.NewDecoder(&repeatReader{frame: frame.Bytes()})
	out["codec.decode_reuse_us_per_frame"] = p.timeOp(func() {
		e, _, err := dec.ReadFrame()
		op.keep(err)
		runtime.KeepAlive(e)
	}) / 1e3
	return op.err
}

// repeatReader yields the same frame over and over.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.off == len(r.frame) {
		r.off = 0
	}
	n := copy(p, r.frame[r.off:])
	r.off += n
	return n, nil
}

// checkpoint times the durability calls on a snapshot of the workload's
// model: a WAL append, a full snapshot, and the recovery of a snapshot plus
// four WAL records (the mean state of the directory at SnapshotEvery 5).
func (p prober) checkpoint(out map[string]float64, global []*tensor.Tensor, workers int, scratch string) (err error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratch, "probe-ckpt-")
	if err != nil {
		return err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
	}()
	m, err := checkpoint.Open(dir)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := m.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	snap := &codec.Snapshot{
		Round: 1, Global: global, PrevLoss: math.NaN(),
		PrevTimes: make([]float64, workers), PrevComm: make([]float64, workers),
	}
	for i := 0; i < workers; i++ {
		snap.Workers = append(snap.Workers, codec.WorkerState{Slot: i, ID: fmt.Sprintf("probe-%d", i), Name: "probe"})
	}
	size, err := codec.FrameBytes(&codec.Envelope{Kind: codec.KindRoundClose, Snapshot: snap})
	if err != nil {
		return err
	}
	out["checkpoint.record_kb"] = float64(size) / 1e3

	var op firstErr
	out["checkpoint.snapshot_ms"] = p.timeOp(func() {
		snap.Round++
		op.keep(m.WriteSnapshot(snap))
	}) / 1e6
	// Each timed batch is the steady state between two snapshots: the
	// snapshot resets the WAL, four appends follow, then one recovery.
	var appendNs, recoverNs float64
	batches := max(p.iters/4, 1)
	for i := 0; i < batches && op.err == nil; i++ {
		snap.Round++
		op.keep(m.WriteSnapshot(snap))
		t := time.Now()
		for j := 0; j < 4; j++ {
			snap.Round++
			op.keep(m.AppendRound(snap))
		}
		appendNs += float64(time.Since(t).Nanoseconds())
		t = time.Now()
		got, _, rerr := m.Recover()
		recoverNs += float64(time.Since(t).Nanoseconds())
		op.keep(rerr)
		if rerr == nil && (got == nil || got.Round != snap.Round) {
			op.keep(fmt.Errorf("checkpoint probe: recovered %v, want round %d", got, snap.Round))
		}
	}
	out["checkpoint.append_ms"] = appendNs / float64(4*batches) / 1e6
	out["checkpoint.recover_ms"] = recoverNs / float64(batches) / 1e6
	return op.err
}
