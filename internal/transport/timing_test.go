package transport

import (
	"errors"
	"net"
	"testing"

	"fedmp/internal/core"
	"fedmp/internal/simclock"
	"fedmp/internal/transport/codec"
)

// TestTrainAssignmentFixedClock pins the simclock seam in the worker path:
// with simclock.Fixed injected, the CompSeconds a worker reports is an exact
// constant — timing assertions without sleeping or reading the wall clock.
func TestTrainAssignmentFixedClock(t *testing.T) {
	fam := testFamily()
	srcs, err := fam.Sources(1, core.NonIID{}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	msg := &assignMsg{
		Round:   1,
		Desc:    fam.FullDesc(),
		Weights: fam.InitWeights(5),
		Iters:   2,
	}
	for _, tc := range []struct {
		name    string
		perCall float64
	}{
		{"charged", 2.5},
		{"free", 0},
	} {
		res, err := trainAssignment(core.NewLocalNet(fam, 0.05, 0, 0), srcs[0], msg, WorkerConfig{
			Clock: simclock.Fixed{PerCall: tc.perCall},
		}, new(core.Upload))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.CompSeconds != tc.perCall {
			t.Errorf("%s: CompSeconds = %v, want exactly %v", tc.name, res.CompSeconds, tc.perCall)
		}
		if res.Round != 1 || len(res.Delta) == 0 {
			t.Errorf("%s: malformed result: round %d, %d delta tensors", tc.name, res.Round, len(res.Delta))
		}
	}
}

// TestHeartbeatAndResultOverPipe drives a full worker session — heartbeat,
// assignment, result, shutdown — over an in-memory pipe with a fixed clock:
// no listener, no dial retries, no real time anywhere in the assertions.
func TestHeartbeatAndResultOverPipe(t *testing.T) {
	fam := testFamily()
	srcs, err := fam.Sources(1, core.NonIID{}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	serverRaw, workerRaw := net.Pipe()
	server, worker := newConn(serverRaw), newConn(workerRaw)
	defer server.close()

	cfg := WorkerConfig{LR: 0.05, Clock: simclock.Fixed{PerCall: 3.25}}
	done := make(chan error, 1)
	go func() {
		lastRound := 0
		done <- serveConn(worker, core.NewLocalNet(fam, cfg.LR, 0, 0), srcs[0], cfg, &lastRound, new(core.Upload), newBackoff(0, 0, 1), func(string, ...any) {})
	}()

	// Heartbeat: ping must come back as pong.
	if _, err := server.send(&envelope{Kind: kindPing}); err != nil {
		t.Fatal(err)
	}
	e, _, err := server.recv(ioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != kindPong {
		t.Fatalf("heartbeat answered with kind %d, want pong", e.Kind)
	}

	// One assignment round; the fixed clock makes the reported compute
	// time exact. The measured frame sizes must agree with the codec's
	// size model in both directions — that is the contract that lets the
	// simulation charge the traffic the runtime really generates.
	assignEnv := &envelope{Kind: kindAssign, Assign: &assignMsg{
		Round:   1,
		Desc:    fam.FullDesc(),
		Weights: fam.InitWeights(5),
		Iters:   1,
	}}
	wantDown, err := codec.FrameBytes(assignEnv)
	if err != nil {
		t.Fatal(err)
	}
	sentDown, err := server.send(assignEnv)
	if err != nil {
		t.Fatal(err)
	}
	if int64(sentDown) != wantDown {
		t.Errorf("assignment frame measured %d bytes, size model says %d", sentDown, wantDown)
	}
	e, upBytes, err := server.recv(ioTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != kindResult {
		t.Fatalf("assignment answered with kind %d, want result", e.Kind)
	}
	if e.Result.CompSeconds != 3.25 {
		t.Errorf("CompSeconds = %v, want exactly 3.25 from the fixed clock", e.Result.CompSeconds)
	}
	wantUp, err := codec.FrameBytes(&envelope{Kind: kindResult, Result: e.Result})
	if err != nil {
		t.Fatal(err)
	}
	if int64(upBytes) != wantUp {
		t.Errorf("result frame measured %d bytes, size model says %d", upBytes, wantUp)
	}

	if _, err := server.send(&envelope{Kind: kindShutdown, Shutdown: &shutdownMsg{Reason: "test over"}}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, errShutdown) {
		t.Fatalf("serveConn returned %v, want errShutdown", err)
	}
}
