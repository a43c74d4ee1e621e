package transport

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fedmp/internal/core"
	"fedmp/internal/data"
	"fedmp/internal/nn"
	"fedmp/internal/simclock"
	"fedmp/internal/tensor"
	"fedmp/internal/transport/checkpoint"
	"fedmp/internal/transport/codec"
	"fedmp/internal/zoo"
)

// sameBits reports the first tensor and element at which two weight lists
// differ bitwise ("" when they are identical).
func sameBits(a, b []*tensor.Tensor) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d tensors", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Data) != len(b[i].Data) {
			return fmt.Sprintf("tensor %d: %d vs %d elements", i, len(a[i].Data), len(b[i].Data))
		}
		for j := range a[i].Data {
			if math.Float32bits(a[i].Data[j]) != math.Float32bits(b[i].Data[j]) {
				return fmt.Sprintf("tensor %d element %d: %v vs %v", i, j, a[i].Data[j], b[i].Data[j])
			}
		}
	}
	return ""
}

// driveOverPipes runs one SynFL round of the real executor against three
// in-memory workers. The registry's reader goroutines are left out: each
// worker trains the assignment it reads off its pipe and the test itself
// feeds the results into the event stream, in the given order.
func driveOverPipes(t *testing.T, order []int) *core.Result {
	t.Helper()
	const n = 3
	fam := testFamily()
	drv, err := core.NewDriver(fam, core.Config{
		Strategy: core.StrategySynFL, Workers: n, Rounds: 1,
		LocalIters: 2, BatchSize: 4, EvalLimit: 80, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ServerConfig{Workers: n, Rounds: 1, RoundTimeout: 30 * time.Second}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	reg := newRegistry(n, cfg.Logf)
	defer reg.closeDone()
	srcs, err := fam.Sources(n, core.NonIID{}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]chan event, n)
	for i := 0; i < n; i++ {
		psEnd, workerEnd := net.Pipe()
		defer psEnd.Close()
		defer workerEnd.Close()
		reg.conns[i], reg.state[i] = newConn(psEnd), stateActive
		results[i] = make(chan event, 1)
		go func(i int, c *conn) {
			e, _, err := c.recv(ioTimeout)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			res, err := trainAssignment(core.NewNetCache(fam, 0.05, 0.9, 0), srcs[i], e.Assign, WorkerConfig{Clock: simclock.Fixed{}}, new([]*tensor.Tensor))
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			env := &envelope{Kind: kindResult, Result: res}
			size, err := codec.FrameBytes(env)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			results[i] <- event{worker: i, env: env, bytes: int(size)}
		}(i, newConn(workerEnd))
	}
	go func() {
		for _, w := range order {
			reg.events <- <-results[w]
		}
	}()
	res, err := drv.Drive(&server{cfg: cfg, reg: reg, logf: cfg.Logf, elapsed: simclock.Fixed{}.Stopwatch()})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAggregationIgnoresArrivalOrder pins the executor contract on the wire:
// results are aggregated in assignment order, so the new global model does
// not depend on which worker's frame arrived first.
func TestAggregationIgnoresArrivalOrder(t *testing.T) {
	inOrder := driveOverPipes(t, []int{0, 1, 2})
	reversed := driveOverPipes(t, []int{2, 1, 0})
	if inOrder.Stats[0].Participants != 3 || reversed.Stats[0].Participants != 3 {
		t.Fatalf("participants %d and %d, want 3 and 3", inOrder.Stats[0].Participants, reversed.Stats[0].Participants)
	}
	if diff := sameBits(inOrder.State.Global, reversed.State.Global); diff != "" {
		t.Errorf("global model depends on arrival order: %s", diff)
	}
}

// constSource hands out one batch forever.
type constSource struct{ b *nn.Batch }

func (s constSource) Next() *nn.Batch { return s.b }

// TestWorkerCarriesTopKLeftover pins FlexCom's error feedback on the TCP
// worker: over two assignments on one session, the second upload is what
// core.WorkerStep produces given the first upload's leftover — not what it
// produces from a clean slate.
func TestWorkerCarriesTopKLeftover(t *testing.T) {
	fam := testFamily()
	srcs, err := fam.Sources(1, core.NonIID{}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	src := constSource{srcs[0].Next()}
	weights := fam.InitWeights(5)
	const k = 0.1

	// What the shared worker step says the two uploads are.
	assign := func(round int) *assignMsg {
		return &assignMsg{Round: round, Desc: fam.FullDesc(), Weights: weights, Iters: 2, UploadK: k}
	}
	upload := func(round int, leftover *[]*tensor.Tensor) []*tensor.Tensor {
		res, err := core.WorkerStep(core.NewNetCache(fam, 0.05, 0.9, 0), src, assign(round), 1, leftover)
		if err != nil {
			t.Fatal(err)
		}
		return res.Update
	}
	var carried, none []*tensor.Tensor
	first := upload(1, &carried)
	second, clean := upload(2, &carried), upload(2, &none)
	if sameBits(second, clean) == "" {
		t.Fatal("feedback does not change the second upload; the test has no teeth")
	}

	serverRaw, workerRaw := net.Pipe()
	server, worker := newConn(serverRaw), newConn(workerRaw)
	defer server.close()
	cfg := WorkerConfig{LR: 0.05, Momentum: 0.9, Clock: simclock.Fixed{}}
	done := make(chan error, 1)
	go func() {
		lastRound := 0
		var leftover []*tensor.Tensor
		done <- serveConn(worker, core.NewNetCache(fam, cfg.LR, cfg.Momentum, 0), src, cfg, &lastRound, &leftover, newBackoff(0, 0, 1), func(string, ...any) {})
	}()
	for round, want := range [][]*tensor.Tensor{first, second} {
		if _, err := server.send(&envelope{Kind: kindAssign, Assign: assign(round + 1)}); err != nil {
			t.Fatal(err)
		}
		e, _, err := server.recv(ioTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if e.Kind != kindResult || e.Result.Update == nil {
			t.Fatalf("round %d answered with kind %d, update %v", round+1, e.Kind, e.Result)
		}
		if diff := sameBits(e.Result.Update, want); diff != "" {
			t.Errorf("round %d upload differs from the worker step's: %s", round+1, diff)
		}
	}
	if _, err := server.send(&envelope{Kind: kindShutdown, Shutdown: &shutdownMsg{Reason: "test over"}}); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestServeStopsAtTargetLoss pins that the wire runtime inherits the
// driver's quality targets: Serve stops at the first evaluation under
// Core.TargetLoss, well short of its round budget.
func TestServeStopsAtTargetLoss(t *testing.T) {
	const rounds, target = 40, 1.25
	res := launchWith(t, core.StrategySynFL, 2, rounds, func(cfg *ServerConfig) { cfg.Core.TargetLoss = target })
	if res.Rounds >= rounds {
		t.Errorf("ran all %d rounds; the loss target did not stop the server", res.Rounds)
	}
	if res.FinalLoss > target {
		t.Errorf("stopped at loss %v, above the target %v", res.FinalLoss, target)
	}
	if math.IsInf(res.TimeToTargetLoss, 1) || res.TimeToTargetLoss > res.Time {
		t.Errorf("TimeToTargetLoss = %v for a run of %v s", res.TimeToTargetLoss, res.Time)
	}
}

// TestServeStreamsMetrics pins that Core.StreamMetrics works over the wire.
func TestServeStreamsMetrics(t *testing.T) {
	res := launchWith(t, core.StrategySynFL, 2, 3, func(cfg *ServerConfig) { cfg.Core.StreamMetrics = true })
	if len(res.Stats) != 0 || len(res.Points) != 0 {
		t.Errorf("streamed run kept %d stats and %d points", len(res.Stats), len(res.Points))
	}
	if res.Stream == nil || res.Stream.Rounds != 3 || res.Stream.Evals != 4 {
		t.Fatalf("stream aggregate %+v, want 3 rounds and 4 evaluations", res.Stream)
	}
	if res.Stream.DownBytes <= 0 || res.FinalLoss != res.Stream.LastLoss {
		t.Errorf("stream aggregate %+v inconsistent with final loss %v", res.Stream, res.FinalLoss)
	}
}

// TestServeRecordsOverheadSeconds pins that a wire round's RoundStat carries
// the strategy's decision and pruning overhead (Fig. 11), exactly, under a
// fixed clock: one stopwatch reading per worker for each.
func TestServeRecordsOverheadSeconds(t *testing.T) {
	res := launchWith(t, core.StrategyFedMP, 2, 2, func(cfg *ServerConfig) { cfg.Core.Clock = simclock.Fixed{PerCall: 0.5} })
	for _, st := range res.Stats {
		if st.DecisionSeconds != 1 || st.PruneSeconds != 1 {
			t.Errorf("round %d: decision %v s, pruning %v s; want 1 and 1", st.Round, st.DecisionSeconds, st.PruneSeconds)
		}
	}
}

// TestServeStateMatchesCheckpoint pins that the Result.State a finished
// server returns is the state its checkpoint directory recovers to.
func TestServeStateMatchesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	res := launchWith(t, core.StrategyFedMP, 2, 3, func(cfg *ServerConfig) {
		cfg.CheckpointDir, cfg.SnapshotEvery = dir, 2
	})
	m, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	snap, _, err := m.Recover()
	if err != nil || snap == nil {
		t.Fatalf("Recover() = %v, %v", snap, err)
	}
	st := res.State
	if st == nil || st.Round != 3 || snap.Round != 3 {
		t.Fatalf("state %+v, checkpoint at round %d; want both at round 3", st, snap.Round)
	}
	if diff := sameBits(st.Global, snap.Global); diff != "" {
		t.Errorf("global model: %s", diff)
	}
	if math.Float64bits(st.PrevLoss) != math.Float64bits(snap.PrevLoss) ||
		!reflect.DeepEqual(st.PrevTimes, snap.PrevTimes) || !reflect.DeepEqual(st.PrevComm, snap.PrevComm) {
		t.Errorf("ledger differs: state %v %v %v, checkpoint %v %v %v",
			st.PrevLoss, st.PrevTimes, st.PrevComm, snap.PrevLoss, snap.PrevTimes, snap.PrevComm)
	}
	if len(st.Workers) != 2 || len(snap.Workers) != 2 {
		t.Fatalf("%d and %d worker entries, want 2 and 2", len(st.Workers), len(snap.Workers))
	}
	for i := range st.Workers {
		a, b := st.Workers[i], snap.Workers[i]
		if a.Bandit == nil || a.Slot != b.Slot || a.Ratio != b.Ratio || !reflect.DeepEqual(a.Bandit, b.Bandit) {
			t.Errorf("worker %d: state %+v, checkpoint %+v", i, a, b)
		}
	}
}

// serveWithOrderedWorkers runs Serve over loopback with worker i joining
// only once worker i-1 has been admitted, so slot i trains on srcs[i].
func serveWithOrderedWorkers(t *testing.T, fam core.Family, srcs []core.Source, cfg ServerConfig, ids []string) *core.Result {
	t.Helper()
	cfg.Addr = reservePort(t)
	joined := make(chan struct{}, len(srcs))
	cfg.Logf = func(format string, _ ...any) {
		if strings.HasPrefix(format, "worker %d joined") || strings.HasPrefix(format, "worker %d (%s) rejoined") {
			joined <- struct{}{}
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, src := range srcs {
			wg.Add(1)
			go func(i int, src core.Source) {
				defer wg.Done()
				if err := RunWorker(fam, src, WorkerConfig{Addr: cfg.Addr, Name: ids[i], ID: ids[i], MaxDialAttempts: 60}); err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}(i, src)
			<-joined
		}
	}()
	res, err := Serve(fam, cfg)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	return res
}

// TestSimWireResultParity pins sim ≡ wire on results, not just bytes: same
// seed, same sources in the same slots, and after the last round the global
// models are bit-identical and every round moved the same bytes — dense and
// under wire quantization. The strategies that run five rounds decide nothing
// from wall-clock times; FlexCom sizes its top-K from them past the first
// round, so it gets one.
func TestSimWireResultParity(t *testing.T) {
	image := testFamily()
	lm := core.NewLMFamily(zoo.LMConfig{Vocab: 20, Embed: 6, Hidden: 8, SeqLen: 6},
		data.CorpusConfig{Vocab: 20, Branch: 3, TrainSize: 3000, TestSize: 400, Seed: 105})
	type row struct {
		fam      core.Family
		strategy core.StrategyID
		rounds   int
		quantize bool
	}
	rows := []row{{lm, core.StrategyFixed, 5, false}}
	for _, quantize := range []bool{false, true} {
		rows = append(rows,
			row{image, core.StrategySynFL, 5, quantize},
			row{image, core.StrategyFixed, 5, quantize},
			row{image, core.StrategyFlexCom, 1, quantize})
	}
	for _, r := range rows {
		name := fmt.Sprintf("%s/%s/quantize=%v", r.fam.Name(), r.strategy, r.quantize)
		coreCfg := core.Config{
			Strategy: r.strategy, FixedRatio: 0.4, Workers: 3, Rounds: r.rounds,
			LocalIters: 2, BatchSize: 4, EvalLimit: 80, Seed: 5,
			QuantizeWire: r.quantize,
			// The TCP worker's optimiser takes no weight decay: codec.Assign
			// carries no optimiser fields (DESIGN.md §4a, "One exchange").
			WeightDecay: -1,
		}
		simRes, err := core.Run(r.fam, coreCfg)
		if err != nil {
			t.Fatalf("%s simulation: %v", name, err)
		}
		srcs, err := r.fam.Sources(coreCfg.Workers, core.NonIID{}, coreCfg.BatchSize, coreCfg.Seed+17)
		if err != nil {
			t.Fatal(err)
		}
		wireRes := serveWithOrderedWorkers(t, r.fam, srcs, ServerConfig{
			Workers: coreCfg.Workers, Rounds: coreCfg.Rounds, RoundTimeout: 30 * time.Second, Core: coreCfg,
		}, []string{"p0", "p1", "p2"})
		if diff := sameBits(simRes.State.Global, wireRes.State.Global); diff != "" {
			t.Errorf("%s: simulated and served global models differ: %s", name, diff)
		}
		for i, sim := range simRes.Stats {
			if wire := wireRes.Stats[i]; sim.DownBytes != wire.DownBytes || sim.UpBytes != wire.UpBytes {
				t.Errorf("%s: round %d traffic: simulation %d/%d, wire %d/%d", name, i+1,
					sim.DownBytes, sim.UpBytes, wire.DownBytes, wire.UpBytes)
			}
		}
	}
}

// TestRecoversParentCheckpoint pins on-disk compatibility: testdata/ckpt-pr14
// was written by the binary of the commit before the round driver existed
// (2 workers "w0"/"w1", FedMP, snapshot at round 2 plus one WAL round), and
// this server resumes it at round 4.
func TestRecoversParentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"snapshot.ckpt", "wal.log"} {
		b, err := os.ReadFile(filepath.Join("testdata", "ckpt-pr14", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fam := testFamily()
	srcs, err := fam.Sources(2, core.NonIID{}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := serveWithOrderedWorkers(t, fam, srcs, ServerConfig{
		Workers: 2, Rounds: 5, RoundTimeout: 30 * time.Second, CheckpointDir: dir, SnapshotEvery: 2,
		Core: core.Config{Strategy: core.StrategyFedMP, Rounds: 5, LocalIters: 2, BatchSize: 4, EvalLimit: 80, Seed: 5, WarmupRounds: 1},
	}, []string{"w0", "w1"})
	if res.Points[0].Round != 3 || res.Rounds != 5 || len(res.Stats) != 2 {
		t.Errorf("resumed at round %d, finished at %d with %d rounds run; want 3, 5 and 2",
			res.Points[0].Round, res.Rounds, len(res.Stats))
	}
	// The fixture's own log: round 3 closed at loss 0.8501.
	if got := res.Points[0].Loss; math.Abs(got-0.8501) > 1e-4 {
		t.Errorf("recovered model evaluates to loss %v, the parent logged 0.8501", got)
	}
}
