package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"fedmp/internal/cluster"
	"fedmp/internal/core"
	"fedmp/internal/data"
	"fedmp/internal/tensor"
	"fedmp/internal/transport"
	"fedmp/internal/transport/checkpoint"
	"fedmp/internal/zoo"
)

// workload is one end-to-end federated run the benchmark executes. All four
// are closed loops: the parameter server dispatches round k+1 only after
// round k closed.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// wire marks the loopback-TCP workload; the others run core.Run.
	wire bool
	// rounds is the fixed round count of one rep.
	rounds int
	// family synthesises the dataset and model family from the run seed.
	family func(seed int64) (core.Family, error)
	// config returns the engine config for the seed (Rounds already set).
	config func(seed int64) core.Config
	// target reports whether an evaluation point reaches the workload's
	// quality target, given the round-0 loss. A run must reach it. Nil for a
	// run that streams its metrics and so keeps no trajectory; it must end
	// with a best accuracy of at least minBestAcc instead.
	target     func(p core.Point, loss0 float64) bool
	minBestAcc float64
}

// imageFamily builds an image family whose dataset seed follows the run seed
// (seed 1 reproduces the repo's canonical dataset for the model).
func imageFamily(model zoo.ModelID, seed int64) (core.Family, error) {
	spec, err := zoo.SpecFor(model)
	if err != nil {
		return nil, err
	}
	id, err := data.DatasetForModel(string(model))
	if err != nil {
		return nil, err
	}
	cfg, err := data.ConfigFor(id)
	if err != nil {
		return nil, err
	}
	cfg.Seed += seed - 1
	return &core.ImageFamily{Spec: spec, DS: data.Generate(string(id), cfg)}, nil
}

// tinySpec is the 8×8 "bench-tiny" model of cmd/fedmp-bench's population
// benchmark: local SGD is cheap enough that per-worker fixed costs and the
// population machinery dominate the round.
func tinySpec() *zoo.Spec {
	return &zoo.Spec{
		Name: "bench-tiny", InC: 1, InH: 8, InW: 8, Classes: 6,
		Layers: []zoo.LayerSpec{
			{Kind: zoo.KindConv, Name: "conv1", Out: 6, K: 3, Stride: 1, Pad: 1},
			{Kind: zoo.KindReLU, Name: "relu1"},
			{Kind: zoo.KindMaxPool, Name: "pool1", Window: 2},
			{Kind: zoo.KindFlatten, Name: "flat"},
			{Kind: zoo.KindDense, Name: "fc1", Out: 24},
			{Kind: zoo.KindReLU, Name: "relu2"},
			{Kind: zoo.KindDense, Name: "out", Out: 6},
		},
	}
}

const (
	wireWorkers = 2
	wireRatio   = 0.4
)

var workloads = []*workload{
	{
		name:   "sim-cnn30",
		why:    "paper-shaped simulator run (CNN, 30 workers, E-UCB + R2SP): nn/tensor kernels do ~80% of the work, engine bookkeeping ~5%",
		rounds: 20,
		family: func(seed int64) (core.Family, error) { return imageFamily(zoo.ModelCNN, seed) },
		config: func(seed int64) core.Config {
			return core.Config{Strategy: core.StrategyFedMP, Workers: 30, LocalIters: 4, BatchSize: 8, EvalEvery: 1, Seed: seed}
		},
		target: func(p core.Point, _ float64) bool { return p.Acc >= 0.95 },
	},
	{
		name:   "sim-pop1m",
		why:    "million-device population, cohort 200, tiny model: bypasses the kernels so BuildNet, prune, cohort sampling, scheduler and GC set the round",
		rounds: 100,
		family: func(seed int64) (core.Family, error) {
			ds := data.Generate("bench-tiny", data.Config{
				Classes: 6, C: 1, H: 8, W: 8,
				TrainSize: 600, TestSize: 180, Noise: 0.6, MaxShift: 1, Seed: 41 + seed,
			})
			return &core.ImageFamily{Spec: tinySpec(), DS: ds}, nil
		},
		config: func(seed int64) core.Config {
			return core.Config{
				Strategy: core.StrategyFedMP, Workers: 200, LocalIters: 1, BatchSize: 2,
				EvalEvery: 10, EvalLimit: 60, StreamMetrics: true, Seed: seed,
				Population: &cluster.Population{
					Size:    1_000_000,
					Diurnal: cluster.Diurnal{Period: 6, OnFraction: 0.8},
					Outage:  cluster.Outage{Regions: 4, Prob: 0.15, Period: 3, Duration: 1.5},
				},
			}
		},
		minBestAcc: 0.8,
	},
	{
		name:   "sim-lstm-async",
		why:    "LSTM language model under the asynchronous engine: the recurrent/MatVec path, LMPlan pruning and runAsync, the second copy of the round loop",
		rounds: 80,
		family: func(seed int64) (core.Family, error) {
			corpus := data.DefaultCorpusConfig()
			corpus.Seed += seed - 1
			return core.NewLMFamily(zoo.DefaultLMConfig(), corpus), nil
		},
		config: func(seed int64) core.Config {
			return core.Config{Strategy: core.StrategyFedMP, Workers: 10, Async: true, AsyncM: 5, EvalEvery: 4, Seed: seed}
		},
		// 80 rounds take the loss from ~4.38 down by 0.05 to 0.12.
		target: func(p core.Point, loss0 float64) bool { return p.Loss <= loss0-0.03 },
	},
	{
		name:   "wire-alexnet-ckpt",
		why:    "parameter server and 2 workers over loopback TCP with checkpointing: the only run with codec, sockets and fsync on the blocking path",
		wire:   true,
		rounds: 400,
		family: func(seed int64) (core.Family, error) { return imageFamily(zoo.ModelAlexNet, seed) },
		config: func(seed int64) core.Config {
			// Fixed ratio, not E-UCB: on the wire the bandit's rewards are
			// wall-clock times, so its ratios (and frame sizes) would differ
			// from run to run.
			return core.Config{
				Strategy: core.StrategyFixed, FixedRatio: wireRatio, Workers: wireWorkers,
				LocalIters: 2, BatchSize: 8, EvalEvery: 20, EvalLimit: 64, Seed: seed,
			}
		},
		target: func(p core.Point, loss0 float64) bool { return p.Loss <= 0.9*loss0 },
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// wireRun is what one loopback-TCP run leaves behind besides the Result.
type wireRun struct {
	workerErrs int
	// ckptRound and ckptShapesOK describe the state recovered from the
	// checkpoint directory after the run.
	ckptRound    int
	ckptShapesOK bool
}

// reservePort finds a free loopback port by binding 127.0.0.1:0 and
// releasing it.
func reservePort() (string, error) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := probe.Addr().String()
	return addr, probe.Close()
}

// awaitListener polls addr until something accepts a connection there,
// reporting false if stop closes first. The probe connection sends no hello,
// so the server's accept loop rejects it without side effects.
func awaitListener(addr string, stop <-chan struct{}) bool {
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return true
		}
		select {
		case <-stop:
			return false
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// serveLoopback runs transport.Serve with in-process RunWorker goroutines
// over 127.0.0.1 TCP, checkpointing into a fresh directory under scratch that
// is removed on every exit path. psFam and workerFam are the family as the
// server and the workers see it (distinct wrappers when tracing). entered is
// called right before Serve, which is where set-up ends. Another process may
// grab the reserved port between release and Serve's bind, so a bind failure
// retries on a new port.
func serveLoopback(psFam, workerFam core.Family, cfg core.Config, rounds int, scratch string, entered func()) (res *core.Result, run wireRun, err error) {
	sources, err := workerFam.Sources(cfg.Workers, cfg.NonIID, cfg.BatchSize, cfg.Seed+17)
	if err != nil {
		return nil, run, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, run, err
	}
	dir, err := os.MkdirTemp(scratch, "ckpt-")
	if err != nil {
		return nil, run, err
	}
	defer func() {
		if rmErr := os.RemoveAll(dir); rmErr != nil && err == nil {
			err = rmErr
		}
	}()

	for attempt := 0; ; attempt++ {
		addr, perr := reservePort()
		if perr != nil {
			return nil, run, perr
		}
		srvCfg := transport.ServerConfig{
			Addr: addr, Workers: cfg.Workers, Rounds: rounds,
			RoundTimeout: 30 * time.Second, CheckpointDir: dir, SnapshotEvery: 5, Core: cfg,
		}
		// The workers start once the server accepts connections: a worker
		// that dials too early sleeps a randomly jittered 50-150 ms backoff,
		// which would land in the measured interval. They never reconnect,
		// so a failed server start ends them.
		stop := make(chan struct{})
		errs := make([]error, cfg.Workers)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if !awaitListener(addr, stop) {
				return
			}
			var workers sync.WaitGroup
			for i := range errs {
				workers.Add(1)
				go func(i int) {
					defer workers.Done()
					errs[i] = transport.RunWorker(workerFam, sources[i], transport.WorkerConfig{
						Addr: addr, Name: fmt.Sprintf("bench-%d", i), MaxReconnects: -1,
					})
				}(i)
			}
			workers.Wait()
		}()
		if attempt == 0 {
			entered()
		}
		res, err = transport.Serve(psFam, srvCfg)
		close(stop)
		wg.Wait()
		var opErr *net.OpError
		if err != nil && errors.As(err, &opErr) && opErr.Op == "listen" && attempt < 3 {
			continue
		}
		if err != nil {
			return nil, run, err
		}
		for _, werr := range errs {
			if werr != nil {
				run.workerErrs++
			}
		}
		break
	}

	// The run is only durable if a fresh manager recovers the final round.
	m, err := checkpoint.Open(dir)
	if err != nil {
		return nil, run, err
	}
	snap, _, rerr := m.Recover()
	if cerr := m.Close(); cerr != nil && rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		return nil, run, fmt.Errorf("recovering the run's checkpoint: %w", rerr)
	}
	if snap != nil {
		run.ckptRound = snap.Round
		want := psFam.InitWeights(cfg.Seed)
		run.ckptShapesOK = len(want) == len(snap.Global)
		for i := 0; run.ckptShapesOK && i < len(want); i++ {
			run.ckptShapesOK = tensor.SameShape(want[i], snap.Global[i])
		}
	}
	return res, run, nil
}
