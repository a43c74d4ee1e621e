package transport

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"fedmp/internal/core"
	"fedmp/internal/data"
	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/testfd"
)

// reservePort grabs an ephemeral port deterministically.
func reservePort(t *testing.T) string {
	t.Helper()
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()
	return addr
}

// deadAfterWorker behaves like a normal worker for a number of rounds, then
// closes its connection mid-training.
func deadAfterWorker(t *testing.T, fam *core.ImageFamily, addr string, src core.Source, id string, dieAfter int) {
	t.Helper()
	c, err := dial(addr, newBackoff(0, 0, 1), 5)
	if err != nil {
		t.Errorf("flaky worker dial: %v", err)
		return
	}
	defer c.close()
	if _, err := c.send(&envelope{Kind: kindHello, Hello: &helloMsg{Name: "flaky", ID: id}}); err != nil {
		t.Errorf("flaky hello: %v", err)
		return
	}
	for served := 0; ; {
		e, _, err := c.recv(30 * time.Second)
		if err != nil || e.Kind == kindShutdown {
			return
		}
		if e.Kind == kindPing {
			if _, err := c.send(&envelope{Kind: kindPong}); err != nil {
				return
			}
			continue
		}
		if e.Kind != kindAssign {
			return
		}
		if served >= dieAfter {
			return // die without answering
		}
		res, err := trainAssignment(core.NewNetCache(fam, 0.05, 0.9, 0), src, e.Assign, WorkerConfig{}, new([]*tensor.Tensor))
		if err != nil {
			t.Errorf("flaky train: %v", err)
			return
		}
		if _, err := c.send(&envelope{Kind: kindResult, Result: res}); err != nil {
			return
		}
		served++
	}
}

// slowWorker answers every assignment correctly but only after a fixed
// delay, standing in for a hard straggler (or, with a small delay, a worker
// whose rounds take long enough for tests to interleave events).
func slowWorker(t *testing.T, fam *core.ImageFamily, addr string, src core.Source, id string, delay time.Duration) {
	t.Helper()
	c, err := dial(addr, newBackoff(0, 0, 2), 5)
	if err != nil {
		t.Errorf("slow worker dial: %v", err)
		return
	}
	defer c.close()
	if _, err := c.send(&envelope{Kind: kindHello, Hello: &helloMsg{Name: id, ID: id}}); err != nil {
		t.Errorf("slow hello: %v", err)
		return
	}
	for {
		e, _, err := c.recv(30 * time.Second)
		if err != nil || e.Kind == kindShutdown {
			return
		}
		switch e.Kind {
		case kindPing:
			if _, err := c.send(&envelope{Kind: kindPong}); err != nil {
				return
			}
		case kindAssign:
			time.Sleep(delay)
			res, err := trainAssignment(core.NewNetCache(fam, 0.05, 0.9, 0), src, e.Assign, WorkerConfig{}, new([]*tensor.Tensor))
			if err != nil {
				t.Errorf("slow train: %v", err)
				return
			}
			if _, err := c.send(&envelope{Kind: kindResult, Result: res}); err != nil {
				return
			}
		default:
			return
		}
	}
}

// TestServerSurvivesWorkerDeath runs three workers, kills one after two
// rounds, and verifies the server completes the full schedule with the
// remaining two.
func TestServerSurvivesWorkerDeath(t *testing.T) {
	fam := testFamily()
	addr := reservePort(t)

	const rounds = 5
	part := data.PartitionIID(fam.DS, 3, rand.New(rand.NewSource(1)))
	for i := 0; i < 2; i++ {
		src := data.NewLoader(fam.DS, part[i], 4, rand.New(rand.NewSource(int64(i)+50)))
		go func(src core.Source) {
			_ = RunWorker(fam, src, WorkerConfig{Addr: addr, Name: "steady"})
		}(src)
	}
	flakySrc := data.NewLoader(fam.DS, part[2], 4, rand.New(rand.NewSource(60)))
	go deadAfterWorker(t, fam, addr, flakySrc, "", 2)

	res, err := Serve(fam, ServerConfig{
		Addr:           addr,
		Workers:        3,
		Rounds:         rounds,
		RoundTimeout:   10 * time.Second,
		StragglerGrace: 500 * time.Millisecond,
		Core: core.Config{
			Strategy:   core.StrategySynFL,
			Rounds:     rounds,
			LocalIters: 1,
			BatchSize:  4,
			EvalLimit:  40,
			Seed:       4,
		},
	})
	if err != nil {
		t.Fatalf("server did not survive a worker death: %v", err)
	}
	if res.Rounds != rounds {
		t.Errorf("completed %d rounds, want %d", res.Rounds, rounds)
	}
}

// TestWorkerRejoinAfterKill kills a worker mid-training, restarts it with
// the same stable identity, and verifies the server completes every round
// with the worker re-contributing after its rejoin (no permanent eviction).
func TestWorkerRejoinAfterKill(t *testing.T) {
	fam := testFamily()
	addr := reservePort(t)

	const rounds = 7
	part := data.PartitionIID(fam.DS, 2, rand.New(rand.NewSource(2)))
	// The steady worker paces rounds at ~100ms so the kill/rejoin below
	// interleaves with training instead of racing a millisecond schedule.
	steadySrc := data.NewLoader(fam.DS, part[0], 4, rand.New(rand.NewSource(70)))
	go slowWorker(t, fam, addr, steadySrc, "steady", 100*time.Millisecond)

	// First incarnation: serves two rounds, then its connection dies; the
	// restart presents the same identity and must re-enter its old slot.
	flakySrc := data.NewLoader(fam.DS, part[1], 4, rand.New(rand.NewSource(71)))
	go func() {
		deadAfterWorker(t, fam, addr, flakySrc, "phoenix", 2)
		_ = RunWorker(fam, flakySrc, WorkerConfig{Addr: addr, Name: "phoenix", ID: "phoenix"})
	}()

	res, err := Serve(fam, ServerConfig{
		Addr:           addr,
		Workers:        2,
		Rounds:         rounds,
		RoundTimeout:   10 * time.Second,
		Quorum:         1,
		StragglerGrace: time.Second,
		Core: core.Config{
			Strategy:   core.StrategySynFL,
			Rounds:     rounds,
			LocalIters: 1,
			BatchSize:  4,
			EvalLimit:  40,
			Seed:       6,
		},
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	if res.Rounds != rounds {
		t.Fatalf("completed %d rounds, want %d", res.Rounds, rounds)
	}
	var sawLoss, sawRecovery bool
	for _, st := range res.Stats {
		if st.Participants < 2 {
			sawLoss = true
		}
		if sawLoss && st.Participants == 2 {
			sawRecovery = true
		}
	}
	if !sawLoss {
		t.Error("kill never cost a round any participant")
	}
	if !sawRecovery {
		t.Error("killed worker never re-contributed after rejoin")
	}
}

// TestQuorumRoundFinishesBeforeSlowest verifies quorum-based completion: a
// hard straggler still in flight must not hold the round open past the
// grace period, and must be skipped (suspect) — not evicted — afterwards.
func TestQuorumRoundFinishesBeforeSlowest(t *testing.T) {
	fam := testFamily()
	addr := reservePort(t)

	const rounds = 3
	const slowDelay = 2 * time.Second
	part := data.PartitionIID(fam.DS, 3, rand.New(rand.NewSource(3)))
	for i := 0; i < 2; i++ {
		src := data.NewLoader(fam.DS, part[i], 4, rand.New(rand.NewSource(int64(i)+80)))
		go func(i int, src core.Source) {
			_ = RunWorker(fam, src, WorkerConfig{Addr: addr, Name: "fast"})
		}(i, src)
	}
	slowSrc := data.NewLoader(fam.DS, part[2], 4, rand.New(rand.NewSource(90)))
	go slowWorker(t, fam, addr, slowSrc, "slow", slowDelay)

	start := time.Now()
	res, err := Serve(fam, ServerConfig{
		Addr:           addr,
		Workers:        3,
		Rounds:         rounds,
		RoundTimeout:   15 * time.Second,
		Quorum:         2,
		StragglerGrace: 250 * time.Millisecond,
		Core: core.Config{
			Strategy:   core.StrategySynFL,
			Rounds:     rounds,
			LocalIters: 1,
			BatchSize:  4,
			EvalLimit:  40,
			Seed:       8,
		},
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	if res.Rounds != rounds {
		t.Errorf("completed %d rounds, want %d", res.Rounds, rounds)
	}
	// Waiting out the straggler every round would take ≥ rounds×slowDelay.
	if elapsed >= rounds*slowDelay {
		t.Errorf("rounds took %v; quorum should finish before the slowest worker (%v per round)", elapsed, slowDelay)
	}
	var droppedTotal int
	for _, st := range res.Stats {
		if st.Participants < 2 {
			t.Errorf("round %d aggregated only %d results, quorum is 2", st.Round, st.Participants)
		}
		droppedTotal += st.Dropped
	}
	if droppedTotal == 0 {
		t.Error("straggler was never recorded as dropped")
	}
}

// TestSilentClientDoesNotStallStartup connects a client that never sends a
// hello; the real worker arriving later must still be admitted and training
// must complete.
func TestSilentClientDoesNotStallStartup(t *testing.T) {
	fam := testFamily()
	addr := reservePort(t)
	// Collector off: a socket the server forgot to close must stay open for
	// the check at the end, not be closed by its finalizer.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	resCh := make(chan *core.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := Serve(fam, ServerConfig{
			Addr: addr, Workers: 1, Rounds: 1,
			RoundTimeout:  20 * time.Second,
			HelloTimeout:  400 * time.Millisecond,
			AcceptTimeout: 15 * time.Second,
			Core:          core.Config{Strategy: core.StrategySynFL, Rounds: 1, LocalIters: 1, BatchSize: 2, EvalLimit: 40, Seed: 2},
		})
		resCh <- res
		errCh <- err
	}()

	// The silent client connects first and just sits there.
	time.Sleep(100 * time.Millisecond)
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()

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
	// The hello deadline passed long ago: the server hung up on the silent
	// client rather than keeping its socket.
	if err := silent.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := silent.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Errorf("silent client read %v, want the server to have closed the connection", err)
	}
}

// TestAcceptTimeoutBoundsStartup verifies the server gives up promptly when
// too few workers ever join.
func TestAcceptTimeoutBoundsStartup(t *testing.T) {
	fam := testFamily()
	addr := reservePort(t)
	start := time.Now()
	_, err := Serve(fam, ServerConfig{
		Addr: addr, Workers: 2, Rounds: 1,
		AcceptTimeout: 300 * time.Millisecond,
		Core:          core.Config{Strategy: core.StrategySynFL, Rounds: 1, LocalIters: 1, BatchSize: 2, EvalLimit: 40, Seed: 2},
	})
	if err == nil {
		t.Fatal("server started without its workers")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("accept phase took %v despite a 300ms accept timeout", elapsed)
	}
}

// gatedSource serves a number of batches normally and then blocks until
// release is closed. It pins the training schedule mid-round so the kill in
// TestPSKillRestartRecovery cannot race the server finishing the whole
// schedule first — on fast hardware all six tiny rounds complete between two
// polls of the checkpoint directory.
type gatedSource struct {
	src     core.Source
	free    int
	served  int
	release <-chan struct{}
}

func (g *gatedSource) Next() *nn.Batch {
	g.served++
	if g.served > g.free {
		<-g.release
	}
	return g.src.Next()
}

// TestPSKillRestartRecovery is the durability acceptance test: the
// parameter server is killed mid-schedule without any shutdown handshake,
// then restarted on the same address and checkpoint directory while its
// workers are still alive and backing off. The restarted server must resume
// from the round after the last durable one — never re-running a completed
// round — finish the schedule, and land within tolerance of an
// uninterrupted run (make ci runs this under -race).
func TestPSKillRestartRecovery(t *testing.T) {
	fam := testFamily()
	addr := reservePort(t)
	dir := t.TempDir()

	const rounds = 6
	mkCfg := func(abort <-chan struct{}) ServerConfig {
		return ServerConfig{
			Addr:          addr,
			Workers:       2,
			Rounds:        rounds,
			RoundTimeout:  20 * time.Second,
			CheckpointDir: dir,
			SnapshotEvery: 2,
			Abort:         abort,
			Core: core.Config{
				Strategy:   core.StrategyFedMP,
				Rounds:     rounds,
				LocalIters: 2,
				BatchSize:  4,
				EvalLimit:  80,
				Seed:       5,
			},
		}
	}

	// Same partition, loaders and seed as launch(), so the uninterrupted
	// baseline below trains on identical data. Each worker trains the first
	// two rounds freely and then stalls until released, holding the schedule
	// open for the kill below.
	release := make(chan struct{})
	part := data.PartitionIID(fam.DS, 2, rand.New(rand.NewSource(9)))
	workerErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		src := &gatedSource{
			src:     data.NewLoader(fam.DS, part[i], 4, rand.New(rand.NewSource(int64(i)+100))),
			free:    2 * 2, // two rounds of LocalIters batches
			release: release,
		}
		go func(i int, src core.Source) {
			workerErrs <- RunWorker(fam, src, WorkerConfig{
				Addr:            addr,
				Name:            fmt.Sprintf("w%d", i),
				ID:              fmt.Sprintf("stable-%d", i),
				MaxDialAttempts: 60,
				MaxReconnects:   20,
			})
		}(i, src)
	}

	// First incarnation: run until a round is durable — a WAL record (round
	// 1) or a full snapshot (round 2); the workers stall in round 3 — then
	// abort: connections severed without the shutdown handshake, exactly
	// like a crash.
	abort := make(chan struct{})
	serveErr := make(chan error, 1)
	go func() {
		_, err := Serve(fam, mkCfg(abort))
		serveErr <- err
	}()
	wal := filepath.Join(dir, "wal.log")
	snap := filepath.Join(dir, "snapshot.ckpt")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, err := os.Stat(wal); err == nil && st.Size() > 0 {
			break
		}
		if _, err := os.Stat(snap); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no round became durable within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(abort)
	if err := <-serveErr; !errors.Is(err, ErrAborted) {
		t.Fatalf("killed server returned %v, want ErrAborted", err)
	}
	// Unblock the stalled round-3 training; the workers' result sends hit
	// the severed connections and they reconnect to the next incarnation.
	close(release)

	// Second incarnation: same address, same checkpoint directory, no
	// abort. The still-running workers reconnect and training resumes.
	res, err := Serve(fam, mkCfg(nil))
	if err != nil {
		t.Fatalf("restarted server: %v", err)
	}
	if res.Rounds != rounds {
		t.Fatalf("restarted server finished at round %d, want %d", res.Rounds, rounds)
	}
	// The restart's baseline eval point is the recovered round; every round
	// it actually runs must come strictly after it.
	resumeRound := res.Points[0].Round
	if resumeRound < 1 {
		t.Fatalf("restart resumed at round %d; the durable round was lost", resumeRound)
	}
	for _, st := range res.Stats {
		if st.Round <= resumeRound {
			t.Errorf("restarted server re-ran round %d (already durable through %d)", st.Round, resumeRound)
		}
	}
	// Orderly finish: both workers get the shutdown handshake and exit nil.
	for i := 0; i < 2; i++ {
		if err := <-workerErrs; err != nil {
			t.Errorf("worker: %v", err)
		}
	}

	// Convergence matches an uninterrupted run of the same schedule. The
	// trajectories diverge at the kill (replayed round, fresh RNG), so exact
	// equality is not expected — but on this easy task both must land in the
	// same place.
	base := launch(t, core.StrategyFedMP, 2, rounds)
	if diff := math.Abs(res.FinalAcc - base.FinalAcc); diff > 0.2 {
		t.Errorf("recovered run final accuracy %v vs uninterrupted %v (diff %v)",
			res.FinalAcc, base.FinalAcc, diff)
	}
}

// TestBackoffBounds pins the jittered delay inside [raw/2, 3·raw/2) and the
// raw schedule to capped exponential doubling.
func TestBackoffBounds(t *testing.T) {
	b := newBackoff(100*time.Millisecond, time.Second, 42)
	wantRaw := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second, time.Second,
	}
	for attempt, raw := range wantRaw {
		if got := b.raw(attempt); got != raw {
			t.Errorf("raw(%d) = %v, want %v", attempt, got, raw)
		}
		for trial := 0; trial < 50; trial++ {
			d := b.delay(attempt)
			if d < raw/2 || d >= raw*3/2 {
				t.Fatalf("delay(%d) = %v outside [%v, %v)", attempt, d, raw/2, raw*3/2)
			}
		}
	}
	// Defaults kick in for zero parameters.
	d := newBackoff(0, 0, 1)
	if d.base != defaultBackoffBase || d.max != defaultBackoffMax {
		t.Errorf("zero-config backoff got base %v max %v", d.base, d.max)
	}
}

// TestLateHelloGetsShutdown pins the late-connection rejection path: a
// worker whose hello loses the race against registry shutdown must receive
// a shutdown frame before the hangup, exactly like the server-full
// rejection, so its session loop exits cleanly instead of treating the
// bare EOF as a transport fault and redialing a dead server.
func TestLateHelloGetsShutdown(t *testing.T) {
	reg := newRegistry(1, func(string, ...any) {})
	reg.closeDone()
	serverRaw, workerRaw := net.Pipe()
	defer workerRaw.Close()
	admitted := make(chan struct{})
	go func() {
		defer close(admitted)
		reg.admit(newConn(serverRaw), &helloMsg{Name: "late", ID: "late"})
	}()
	wc := newConn(workerRaw)
	e, _, err := wc.recv(5 * time.Second)
	if err != nil {
		t.Fatalf("late hello was hung up on without a shutdown frame: %v", err)
	}
	if e.Kind != kindShutdown {
		t.Fatalf("late hello got kind %d, want shutdown", e.Kind)
	}
	if e.Shutdown == nil || e.Shutdown.Reason != "server shutting down" {
		t.Fatalf("shutdown frame carries %+v, want the shutting-down reason", e.Shutdown)
	}
	<-admitted
	if _, _, err := wc.recv(5 * time.Second); !hungUp(err) {
		t.Fatalf("after the late-hello shutdown frame: %v; want the connection closed", err)
	}
	if got := reg.connected(); got != 0 {
		t.Fatalf("connected() = %d after a late hello, want 0", got)
	}
}

// TestAdmitTurnsAwayAndReplaces covers the two ways admit closes a
// connection while the server runs: a stranger arriving at a full server is
// told so and hung up on, and a known identity arriving again takes over its
// slot, which closes the connection it replaces.
func TestAdmitTurnsAwayAndReplaces(t *testing.T) {
	reg := newRegistry(1, func(string, ...any) {})
	defer reg.closeDone()
	firstRaw, firstWorker := net.Pipe()
	defer firstWorker.Close()
	reg.admit(newConn(firstRaw), &helloMsg{Name: "w0", ID: "known"})

	strangerRaw, strangerWorker := net.Pipe()
	defer strangerWorker.Close()
	go reg.admit(newConn(strangerRaw), &helloMsg{Name: "x", ID: "stranger"})
	sc := newConn(strangerWorker)
	e, _, err := sc.recv(5 * time.Second)
	if err != nil || e.Kind != kindShutdown || e.Shutdown.Reason != "server full" {
		t.Fatalf("stranger got %+v, %v; want a \"server full\" shutdown", e, err)
	}
	if _, _, err := sc.recv(5 * time.Second); !hungUp(err) {
		t.Fatalf("stranger's connection after the shutdown frame: %v; want it closed", err)
	}

	againRaw, againWorker := net.Pipe()
	defer againWorker.Close()
	reg.admit(newConn(againRaw), &helloMsg{Name: "w0", ID: "known"})
	if _, _, err := newConn(firstWorker).recv(5 * time.Second); !hungUp(err) {
		t.Fatalf("replaced connection: %v; want it closed", err)
	}
	if got := reg.connected(); got != 1 {
		t.Fatalf("connected() = %d after a rejoin, want 1", got)
	}
}

// TestWorkerSessionIsHelloThenSilence is the worker's side of a session that
// the server ends at once: exactly one hello carrying the stable identity,
// nothing more said after the shutdown frame, and the socket closed.
func TestWorkerSessionIsHelloThenSilence(t *testing.T) {
	fam := testFamily()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	src := data.NewLoader(fam.DS, []int{0, 1, 2, 3}, 2, rand.New(rand.NewSource(1)))
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(fam, src, WorkerConfig{Addr: ln.Addr().String(), Name: "w", ID: "stable"})
	}()
	raw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	c := newConn(raw)
	defer c.close()
	e, _, err := c.recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != kindHello || e.Hello.ID != "stable" {
		t.Fatalf("session opened with kind %d (%+v), want a hello from \"stable\"", e.Kind, e.Hello)
	}
	sendShutdownLogged(c, "test over", t.Logf)
	if e, _, err := c.recv(5 * time.Second); !errors.Is(err, io.EOF) {
		t.Fatalf("after the shutdown: %+v, %v; want the worker to hang up", e, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
}

// relay is a TCP hop in front of a parameter server whose links the test can
// cut: the worker behind it sees its session die mid-run and redials, as it
// would across a flapping network.
type relay struct {
	ln       net.Listener
	mu       sync.Mutex
	live     []net.Conn
	accepted int
	wg       sync.WaitGroup
}

func newRelay(t *testing.T, target string) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{ln: ln}
	pump := func(dst, src net.Conn) {
		defer r.wg.Done()
		buf := make([]byte, 32<<10)
		for {
			n, err := src.Read(buf)
			if _, werr := dst.Write(buf[:n]); err != nil || werr != nil {
				dst.Close()
				src.Close()
				return
			}
		}
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			// The worker may be up before the server listens.
			var up net.Conn
			for try := 0; try < 500 && up == nil; try++ {
				if up, err = net.Dial("tcp", target); err != nil {
					time.Sleep(10 * time.Millisecond)
				}
			}
			if up == nil {
				down.Close()
				continue
			}
			r.mu.Lock()
			r.live = append(r.live, down, up)
			r.accepted++
			r.mu.Unlock()
			r.wg.Add(2)
			go pump(up, down)
			go pump(down, up)
		}
	}()
	return r
}

// cut severs every relayed link; the relay keeps accepting new ones.
func (r *relay) cut() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.live {
		c.Close()
	}
	r.live = nil
}

// close stops the relay and waits until it holds no socket.
func (r *relay) close() int {
	r.ln.Close()
	r.cut()
	r.wg.Wait()
	return r.accepted
}

// cuttingSource severs the relay's links when its worker draws batch number
// at — in the middle of that round's training.
type cuttingSource struct {
	core.Source
	drawn, at int
	link      *relay
}

func (c *cuttingSource) Next() *nn.Batch {
	if c.drawn++; c.drawn == c.at {
		c.link.cut()
	}
	return c.Source.Next()
}

// TestServeLeaksNoDescriptors runs a checkpointing server and two workers to
// completion, one of them losing its link in round 3 and redialling, and
// demands that afterwards every socket — listening, accepted, dialled — and
// every checkpoint file is closed. The collector is off throughout: the
// finalizer of an unreachable socket or file would close it and hide the
// leak.
func TestServeLeaksNoDescriptors(t *testing.T) {
	fam := testFamily()
	addr := reservePort(t) // also brings up the runtime's poller, which stays
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := testfd.Open(t)

	const rounds = 6
	link := newRelay(t, addr)
	part := data.PartitionIID(fam.DS, 2, rand.New(rand.NewSource(9)))
	srcs := []core.Source{
		data.NewLoader(fam.DS, part[0], 4, rand.New(rand.NewSource(100))),
		&cuttingSource{Source: data.NewLoader(fam.DS, part[1], 4, rand.New(rand.NewSource(101))), at: 3, link: link},
	}
	addrs := []string{addr, link.ln.Addr().String()}
	workerErrs := make(chan error, 2)
	for i := range srcs {
		go func(i int) {
			workerErrs <- RunWorker(fam, srcs[i], WorkerConfig{Addr: addrs[i], Name: fmt.Sprintf("w%d", i), ID: fmt.Sprintf("fd-%d", i)})
		}(i)
	}
	res, err := Serve(fam, ServerConfig{
		Addr:          addr,
		Workers:       2,
		Rounds:        rounds,
		RoundTimeout:  10 * time.Second,
		CheckpointDir: t.TempDir(),
		SnapshotEvery: 2,
		Core: core.Config{
			Strategy:   core.StrategySynFL,
			Rounds:     rounds,
			LocalIters: 1,
			BatchSize:  4,
			EvalLimit:  40,
			Seed:       6,
		},
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	if res.Rounds != rounds {
		t.Fatalf("completed %d rounds, want %d", res.Rounds, rounds)
	}
	for range srcs {
		if err := <-workerErrs; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
	if links := link.close(); links < 2 {
		t.Errorf("relay carried %d link(s); the cut worker never redialled", links)
	}
	// A hello the server was still turning away when it returned may hold
	// its socket a moment longer; a leak holds it for good.
	var leaked []string
	for wait := 0; wait < 200; wait++ {
		if leaked = testfd.Leaked(t, before); len(leaked) == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("still open after the run: %v", leaked)
}
