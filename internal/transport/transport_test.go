package transport

import (
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fedmp/internal/cluster"
	"fedmp/internal/core"
	"fedmp/internal/data"
	"fedmp/internal/zoo"
)

// testFamily builds a small image family shared by server and workers.
func testFamily() *core.ImageFamily {
	spec := &zoo.Spec{
		Name: "wire-tiny", InC: 1, InH: 8, InW: 8, Classes: 4,
		Layers: []zoo.LayerSpec{
			{Kind: zoo.KindConv, Name: "conv1", Out: 4, K: 3, Stride: 1, Pad: 1},
			{Kind: zoo.KindReLU, Name: "relu1"},
			{Kind: zoo.KindMaxPool, Name: "pool1", Window: 2},
			{Kind: zoo.KindFlatten, Name: "flat"},
			{Kind: zoo.KindDense, Name: "fc1", Out: 16},
			{Kind: zoo.KindReLU, Name: "relu2"},
			{Kind: zoo.KindDense, Name: "out", Out: 4},
		},
	}
	ds := data.Generate("wire-tiny", data.Config{
		Classes: 4, C: 1, H: 8, W: 8,
		TrainSize: 240, TestSize: 80, Noise: 0.5, MaxShift: 0, Seed: 77,
	})
	return &core.ImageFamily{Spec: spec, DS: ds}
}

// launch starts a server on an ephemeral port and n worker goroutines; it
// returns the server result.
func launch(t *testing.T, strategy core.StrategyID, workers, rounds int) *core.Result {
	t.Helper()
	return launchQuantized(t, strategy, workers, rounds, false)
}

// launchQuantized is launch with the wire-quantization knob exposed.
func launchQuantized(t *testing.T, strategy core.StrategyID, workers, rounds int, quantize bool) *core.Result {
	t.Helper()
	return launchWith(t, strategy, workers, rounds, func(cfg *ServerConfig) { cfg.Core.QuantizeWire = quantize })
}

// launchWith is launch with the server config open to the caller.
func launchWith(t *testing.T, strategy core.StrategyID, workers, rounds int, tune func(*ServerConfig)) *core.Result {
	t.Helper()
	fam := testFamily()

	// Reserve a port deterministically by listening on :0 first.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	srvCfg := ServerConfig{
		Addr:         addr,
		Workers:      workers,
		Rounds:       rounds,
		RoundTimeout: 30 * time.Second,
		Core: core.Config{
			Strategy:   strategy,
			Rounds:     rounds,
			LocalIters: 2,
			BatchSize:  4,
			EvalLimit:  80,
			Seed:       5,
		},
	}
	tune(&srvCfg)

	part := data.PartitionIID(fam.DS, workers, rand.New(rand.NewSource(9)))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		src := data.NewLoader(fam.DS, part[i], 4, rand.New(rand.NewSource(int64(i)+100)))
		go func(i int, src core.Source) {
			defer wg.Done()
			if err := RunWorker(fam, src, WorkerConfig{Addr: addr, Name: "w"}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i, src)
	}
	res, err := Serve(fam, srvCfg)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	return res
}

func TestDistributedSynFL(t *testing.T) {
	res := launch(t, core.StrategySynFL, 3, 4)
	if res.Rounds != 4 {
		t.Errorf("ran %d rounds, want 4", res.Rounds)
	}
	if len(res.Points) != 5 {
		t.Errorf("%d eval points, want 5", len(res.Points))
	}
	if res.FinalLoss >= res.Points[0].Loss {
		t.Errorf("loss did not improve over the wire: %v -> %v", res.Points[0].Loss, res.FinalLoss)
	}
}

func TestDistributedFedMP(t *testing.T) {
	res := launch(t, core.StrategyFedMP, 3, 4)
	if res.Rounds != 4 {
		t.Errorf("ran %d rounds, want 4", res.Rounds)
	}
	if res.FinalAcc <= 0 {
		t.Error("zero accuracy after distributed FedMP training")
	}
}

func TestDistributedFlexCom(t *testing.T) {
	res := launch(t, core.StrategyFlexCom, 2, 3)
	if res.Rounds != 3 {
		t.Errorf("ran %d rounds, want 3", res.Rounds)
	}
}

func TestServerConfigValidation(t *testing.T) {
	fam := testFamily()
	if _, err := Serve(fam, ServerConfig{Addr: "127.0.0.1:0", Workers: 0, Rounds: 1}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := Serve(fam, ServerConfig{Addr: "127.0.0.1:0", Workers: 1, Rounds: 0}); err == nil {
		t.Error("zero rounds accepted")
	}
	// What the round driver or the checkpoint directory refuses ends Serve
	// with the reason, before it listens.
	if _, err := Serve(fam, ServerConfig{Addr: "127.0.0.1:0", Workers: 1, Rounds: 1, AcceptTimeout: time.Second,
		Core: core.Config{Strategy: "bogus"}}); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown strategy: Serve returned %v, want the driver's refusal", err)
	}
	notDir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Serve(fam, ServerConfig{Addr: "127.0.0.1:0", Workers: 1, Rounds: 1, AcceptTimeout: time.Second,
		CheckpointDir: notDir}); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("checkpoint directory is a file: Serve returned %v, want the checkpoint error", err)
	}
}

func TestWorkerDialFailure(t *testing.T) {
	fam := testFamily()
	src := data.NewLoader(fam.DS, []int{0, 1, 2, 3}, 2, rand.New(rand.NewSource(1)))
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(fam, src, WorkerConfig{Addr: "127.0.0.1:1", Name: "w", MaxDialAttempts: 4})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("worker connected to a closed port")
		}
	case <-time.After(10 * time.Second):
		t.Error("worker dial did not fail promptly")
	}
}

func TestBadHelloRejected(t *testing.T) {
	fam := testFamily()
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	resCh := make(chan *core.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := Serve(fam, ServerConfig{
			Addr: addr, Workers: 1, Rounds: 1,
			RoundTimeout: 20 * time.Second,
			Core:         core.Config{Strategy: core.StrategySynFL, Rounds: 1, LocalIters: 1, BatchSize: 2, EvalLimit: 40, Seed: 2},
		})
		resCh <- res
		errCh <- err
	}()

	// First connection sends garbage (wrong magic) and must be rejected.
	time.Sleep(200 * time.Millisecond)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("not a frame at all\n"))
	raw.Close()

	// A real worker then joins and training completes.
	src := data.NewLoader(fam.DS, []int{0, 1, 2, 3, 4, 5}, 2, rand.New(rand.NewSource(3)))
	go func() {
		_ = RunWorker(fam, src, WorkerConfig{Addr: addr, Name: "legit"})
	}()
	res := <-resCh
	if err := <-errCh; err != nil {
		t.Fatalf("server: %v", err)
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
}

// TestSimWireBytesParity pins the acceptance contract of the size model:
// the simulated cluster runtime and the real TCP runtime must report the
// same per-round traffic for identical plans. Round 1 is fully determined
// by the config (same seed → same initial weights, same strategy state), so
// the measured assignment frames on the wire must sum to exactly what the
// simulation charges through codec.FrameBytes.
func TestSimWireBytesParity(t *testing.T) {
	fam := testFamily()
	coreCfg := core.Config{
		Strategy:   core.StrategySynFL,
		Workers:    3,
		Rounds:     1,
		LocalIters: 2,
		BatchSize:  4,
		EvalLimit:  80,
		Seed:       5,
	}
	simRes, err := core.Run(fam, coreCfg)
	if err != nil {
		t.Fatalf("simulation: %v", err)
	}
	wireRes := launch(t, core.StrategySynFL, 3, 1)
	if len(simRes.Stats) == 0 || len(wireRes.Stats) == 0 {
		t.Fatalf("missing round stats: sim %d, wire %d", len(simRes.Stats), len(wireRes.Stats))
	}
	simDown, wireDown := simRes.Stats[0].DownBytes, wireRes.Stats[0].DownBytes
	if simDown != wireDown {
		t.Errorf("round-1 downlink bytes: simulation %d, wire %d — runtimes disagree on the size model", simDown, wireDown)
	}
	if simDown <= 0 {
		t.Errorf("round-1 downlink bytes = %d, want positive", simDown)
	}
}

// TestSimWireBytesParityQuantized repeats the byte-parity pin with wire
// quantization on: both runtimes must charge identical round-1 downlink
// traffic (the simulation prices the quantize-enabled frame with FrameBytes,
// the server measures the frame it actually wrote), and that traffic must be
// well under the float32 runs' — the int8 slabs are the point.
func TestSimWireBytesParityQuantized(t *testing.T) {
	fam := testFamily()
	coreCfg := core.Config{
		Strategy:     core.StrategySynFL,
		Workers:      3,
		Rounds:       1,
		LocalIters:   2,
		BatchSize:    4,
		EvalLimit:    80,
		Seed:         5,
		QuantizeWire: true,
	}
	simRes, err := core.Run(fam, coreCfg)
	if err != nil {
		t.Fatalf("simulation: %v", err)
	}
	wireRes := launchQuantized(t, core.StrategySynFL, 3, 1, true)
	if len(simRes.Stats) == 0 || len(wireRes.Stats) == 0 {
		t.Fatalf("missing round stats: sim %d, wire %d", len(simRes.Stats), len(wireRes.Stats))
	}
	simDown, wireDown := simRes.Stats[0].DownBytes, wireRes.Stats[0].DownBytes
	if simDown != wireDown {
		t.Errorf("quantized round-1 downlink bytes: simulation %d, wire %d — runtimes disagree on the size model", simDown, wireDown)
	}

	plainCfg := coreCfg
	plainCfg.QuantizeWire = false
	plainRes, err := core.Run(fam, plainCfg)
	if err != nil {
		t.Fatalf("float32 simulation: %v", err)
	}
	plainDown := plainRes.Stats[0].DownBytes
	if simDown*10 > plainDown*4 {
		t.Errorf("quantized downlink %d bytes vs %d float32; want < 40%%", simDown, plainDown)
	}
}

// TestLoopbackSmoke is the CI smoke round: two workers, one round, over
// loopback TCP with the binary codec (make ci runs it under -race).
func TestLoopbackSmoke(t *testing.T) {
	res := launch(t, core.StrategyFedMP, 2, 1)
	if res.Rounds != 1 {
		t.Errorf("ran %d rounds, want 1", res.Rounds)
	}
	if len(res.Stats) != 1 || res.Stats[0].Participants != 2 {
		t.Errorf("round stats %+v, want one round with 2 participants", res.Stats)
	}
}

// TestServeRejectsSimulatorOnlyFields pins that a Core field the wire runtime
// cannot honour is an error naming the field, not a silent synchronous run
// on real workers.
func TestServeRejectsSimulatorOnlyFields(t *testing.T) {
	for field, set := range map[string]func(*core.Config){
		"Async":       func(c *core.Config) { c.Async, c.AsyncM = true, 1 },
		"Population":  func(c *core.Config) { c.Population = &cluster.Population{Size: 10} },
		"Scenario":    func(c *core.Config) { c.Scenario = cluster.Default(2, 7) },
		"Faults":      func(c *core.Config) { c.Faults = cluster.FaultConfig{CrashProb: 0.1} },
		"FailureRate": func(c *core.Config) { c.FailureRate, c.FaultTolerance = 0.1, true },
	} {
		cfg := ServerConfig{Addr: "127.0.0.1:0", Workers: 2, Rounds: 1, AcceptTimeout: time.Second,
			Core: core.Config{Strategy: core.StrategySynFL}}
		set(&cfg.Core)
		_, err := Serve(testFamily(), cfg)
		if err == nil || !strings.Contains(err.Error(), "Core."+field) {
			t.Errorf("Core.%s set: Serve returned %v, want an error naming the field", field, err)
		}
	}
	// What the wire does honour still passes validation.
	honoured := ServerConfig{Workers: 2, Rounds: 1, Core: core.Config{
		Strategy: core.StrategyFedMP, QuantizeWire: true, TargetAccuracy: 0.9, TimeBudget: 60, StreamMetrics: true, EvalEvery: 2}}
	if _, err := honoured.withDefaults(); err != nil {
		t.Errorf("wire-honoured config rejected: %v", err)
	}
}
