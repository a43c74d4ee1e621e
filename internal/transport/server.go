package transport

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"fedmp/internal/core"
	"fedmp/internal/simclock"
	"fedmp/internal/transport/checkpoint"
)

// ServerConfig parameterises a parameter server.
type ServerConfig struct {
	// Addr is the listen address, e.g. ":7070" (":0" for an ephemeral
	// port in tests).
	Addr string
	// Workers is the number of workers to wait for before training.
	Workers int
	// Rounds is the number of global rounds to run.
	Rounds int
	// RoundTimeout bounds one round's collection phase; workers that have
	// not reported by then are marked suspect (skipped, not evicted) and
	// their assignments count as dropped.
	RoundTimeout time.Duration
	// Quorum is the number of results that completes a round early: once
	// this many workers have reported, the server waits at most
	// StragglerGrace longer for the rest before aggregating. Zero means
	// wait for every assigned worker (subject to RoundTimeout).
	Quorum int
	// StragglerGrace is how long the server keeps collecting after the
	// quorum is reached (default RoundTimeout/4).
	StragglerGrace time.Duration
	// HelloTimeout bounds how long an accepted connection may take to send
	// its hello before being rejected (default 10s); it keeps a silent
	// client from stalling startup.
	HelloTimeout time.Duration
	// AcceptTimeout bounds the initial wait for Workers workers to join
	// (default 2 minutes).
	AcceptTimeout time.Duration
	// CheckpointDir enables durability: the server checkpoints its full
	// state there (global model, round counter, bandit statistics, worker
	// identity table) and, when the directory already holds state from a
	// previous incarnation, resumes from the round after the last one it
	// closed instead of starting over. Empty disables checkpointing.
	CheckpointDir string
	// Deprecated: ignored. Every round's checkpoint record is a full
	// snapshot, so there is no snapshot cadence to set.
	SnapshotEvery int
	// Abort, when non-nil, stops the server as a crash would when the
	// channel closes: every worker connection is severed without the
	// shutdown handshake and Serve returns ErrAborted. Used by recovery
	// tests and process supervisors; orderly completion ignores it.
	Abort <-chan struct{}
	// Core carries the strategy and hyper-parameters; its Workers field is
	// overwritten by this config's. The wire honours the strategy fields,
	// QuantizeWire, the targets and TimeBudget (in wall seconds),
	// StreamMetrics, the evaluation fields, Seed and Clock. It does not
	// honour the optimiser fields: an assignment carries no LR, Momentum or
	// WeightDecay, so each worker trains with its own WorkerConfig.LR and
	// Momentum and no weight decay (DESIGN.md §4a, "One exchange"). The
	// fields that shape the simulated cluster have no counterpart on real
	// sockets and are rejected when set: Async, Population, Scenario, Faults
	// and FailureRate (workers, links and their failures are real here, and
	// rounds close on Quorum and RoundTimeout).
	Core core.Config
	// Logf receives progress lines (nil silences logging).
	Logf func(format string, args ...any)
}

// withDefaults validates the config and fills defaults.
func (cfg ServerConfig) withDefaults() (ServerConfig, error) {
	if cfg.Workers < 1 {
		return cfg, fmt.Errorf("transport: server needs at least one worker")
	}
	if cfg.Rounds < 1 {
		return cfg, fmt.Errorf("transport: server needs at least one round")
	}
	if cfg.RoundTimeout == 0 {
		cfg.RoundTimeout = 2 * time.Minute
	}
	if cfg.Quorum < 0 || cfg.Quorum > cfg.Workers {
		return cfg, fmt.Errorf("transport: quorum %d with %d workers", cfg.Quorum, cfg.Workers)
	}
	if cfg.Quorum == 0 {
		cfg.Quorum = cfg.Workers
	}
	if cfg.StragglerGrace == 0 {
		cfg.StragglerGrace = cfg.RoundTimeout / 4
	}
	if cfg.HelloTimeout == 0 {
		cfg.HelloTimeout = 10 * time.Second
	}
	if cfg.AcceptTimeout == 0 {
		cfg.AcceptTimeout = 2 * time.Minute
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"Async", cfg.Core.Async},
		{"Population", cfg.Core.Population != nil},
		{"Scenario", cfg.Core.Scenario != nil},
		{"Faults", cfg.Core.Faults.Enabled()},
		{"FailureRate", cfg.Core.FailureRate != 0},
	} {
		if f.set {
			return cfg, fmt.Errorf("transport: Core.%s is set, but it is a simulator-only field the wire runtime cannot honour", f.name)
		}
	}
	return cfg, nil
}

// Worker session states.
const (
	stateDown    = iota // no live connection
	stateActive         // connected and answering
	stateSuspect        // connected but missed a round; skipped until it answers
)

// event is what per-connection readers deliver to the round loop. A nil env
// signals a disconnect; bytes is the received frame's measured wire size.
// env is from's decoder's until the round loop releases from (handleEvent).
type event struct {
	worker int
	env    *envelope
	bytes  int
	from   *conn
}

// idleTimeout is the reader goroutines' per-receive deadline; it only needs
// to bound how long a dead-but-undetected connection can linger.
const idleTimeout = 24 * time.Hour

// registry owns the worker sessions: slot assignment by stable identity,
// per-slot connections with generation counters (a rejoin bumps the
// generation so the replaced reader's exit cannot tear down the new
// session), and the event stream the round loop consumes.
type registry struct {
	logf func(string, ...any)
	n    int

	mu    sync.Mutex
	slots map[string]int // stable identity -> slot
	names []string
	conns []*conn
	gens  []int
	state []int
	next  int // next unassigned slot

	events chan event
	joined chan struct{} // one token per successful (re)join

	// done is closed exactly once — by shutdown (orderly) or kill (abort) —
	// whichever runs first; the other becomes a no-op on the channel.
	done     chan struct{}
	doneOnce sync.Once
}

func newRegistry(n int, logf func(string, ...any)) *registry {
	return &registry{
		logf:   logf,
		n:      n,
		slots:  make(map[string]int),
		names:  make([]string, n),
		conns:  make([]*conn, n),
		gens:   make([]int, n),
		state:  make([]int, n),
		events: make(chan event, 8*n+16),
		joined: make(chan struct{}, 4*n+16),
		done:   make(chan struct{}),
	}
}

// admit places a hello'd connection into a slot: a known identity re-enters
// its old slot (rejoin), a new identity takes the next free slot, and a
// stranger arriving at a full server is turned away.
func (r *registry) admit(c *conn, hello *helloMsg) {
	select {
	case <-r.done:
		// Shutdown raced the accept loop: a connection hello'd after the
		// registry closed must not resurrect a slot. Tell the worker why
		// before closing — like the server-full rejection below — so the
		// hangup reads as a clean shutdown rather than a transport fault
		// that sends the worker back into its redial loop.
		sendShutdownLogged(c, "server shutting down", r.logf)
		closeLogged(c, r.logf, "late connection")
		return
	default:
	}
	r.mu.Lock()
	slot := -1
	if hello.ID != "" {
		if s, ok := r.slots[hello.ID]; ok {
			slot = s
		}
	}
	rejoin := slot >= 0
	if slot < 0 {
		if r.next >= r.n {
			r.mu.Unlock()
			sendShutdownLogged(c, "server full", r.logf)
			closeLogged(c, r.logf, "rejected connection")
			r.logf("rejecting %q: all %d slots taken", hello.Name, r.n)
			return
		}
		slot = r.next
		r.next++
		if hello.ID != "" {
			r.slots[hello.ID] = slot
		}
	}
	if old := r.conns[slot]; old != nil {
		closeLogged(old, r.logf, "replaced connection")
	}
	r.names[slot] = hello.Name
	r.conns[slot] = c
	r.gens[slot]++
	gen := r.gens[slot]
	r.state[slot] = stateActive
	r.mu.Unlock()

	if rejoin {
		r.logf("worker %d (%s) rejoined", slot, hello.Name)
	} else {
		r.logf("worker %d joined: %s", slot, hello.Name)
	}
	go r.read(slot, gen, c)
	select {
	case r.joined <- struct{}{}:
	default:
	}
}

// read pumps one connection's envelopes into the event stream until the
// connection dies or is replaced by a rejoin. Each envelope lives in the
// session's decoder, so the reader decodes nothing more until the round loop
// has released it.
func (r *registry) read(slot, gen int, c *conn) {
	for {
		e, n, err := c.recv(idleTimeout)
		if err != nil {
			if r.drop(slot, gen) {
				r.push(event{worker: slot, env: nil})
			}
			return
		}
		r.push(event{worker: slot, env: e, bytes: n, from: c})
		select {
		case <-c.free:
		case <-r.done:
			return
		}
	}
}

// push delivers an event unless the server is shutting down.
func (r *registry) push(ev event) {
	select {
	case r.events <- ev:
	case <-r.done:
	}
}

// drop tears down a slot's session if the generation still matches (a rejoin
// bumps it first, making the old reader's teardown a no-op). Reports whether
// it acted.
func (r *registry) drop(slot, gen int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gens[slot] != gen || r.conns[slot] == nil {
		return false
	}
	closeLogged(r.conns[slot], r.logf, "dropped connection")
	r.conns[slot] = nil
	r.state[slot] = stateDown
	return true
}

// send transmits to a slot's current connection, returning the frame's
// measured wire size.
func (r *registry) send(slot int, e *envelope) (int, error) {
	r.mu.Lock()
	c := r.conns[slot]
	r.mu.Unlock()
	if c == nil {
		return 0, fmt.Errorf("transport: worker %d disconnected", slot)
	}
	return c.send(e)
}

// markSuspect demotes a connected worker that missed a round.
func (r *registry) markSuspect(slot int) {
	r.mu.Lock()
	if r.conns[slot] != nil {
		r.state[slot] = stateSuspect
	}
	r.mu.Unlock()
}

// restore promotes a suspect worker that answered back to active.
func (r *registry) restore(slot int) {
	r.mu.Lock()
	if r.conns[slot] != nil && r.state[slot] == stateSuspect {
		r.state[slot] = stateActive
		r.mu.Unlock()
		r.logf("worker %d answered again, restoring", slot)
		return
	}
	r.mu.Unlock()
}

// active lists slots that are connected and not suspect.
func (r *registry) active() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for i := 0; i < r.n; i++ {
		if r.conns[i] != nil && r.state[i] == stateActive {
			out = append(out, i)
		}
	}
	return out
}

// suspects lists connected suspect slots.
func (r *registry) suspects() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int
	for i := 0; i < r.n; i++ {
		if r.conns[i] != nil && r.state[i] == stateSuspect {
			out = append(out, i)
		}
	}
	return out
}

// connected counts slots with a live connection.
func (r *registry) connected() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	cnt := 0
	for _, c := range r.conns {
		if c != nil {
			cnt++
		}
	}
	return cnt
}

// closeDone closes the done channel at most once, so the orderly shutdown
// path and the abort path can both run without racing a double close.
func (r *registry) closeDone() {
	r.doneOnce.Do(func() { close(r.done) })
}

// shutdown closes every live connection after sending a shutdown frame.
func (r *registry) shutdown(reason string) {
	r.closeDone()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, c := range r.conns {
		if c == nil {
			continue
		}
		sendShutdownLogged(c, reason, r.logf)
		closeLogged(c, r.logf, "worker connection")
		r.conns[i] = nil
		r.state[i] = stateDown
	}
}

// pingSuspects sends a heartbeat to every connected suspect worker; a pong
// (or any other frame) restores it to the live set. Slot, generation and
// connection are captured under one mutex hold, and a failed send severs
// that exact captured connection: the blocked per-connection reader then
// unblocks with a recv error and runs the ordinary drop path immediately,
// instead of the dead suspect lingering until the idle timeout fires.
// Closing the captured pointer (rather than re-reading r.conns[slot]) keeps
// a concurrent rejoin's fresh connection safe — at worst the old, already
// replaced connection is closed twice.
func (r *registry) pingSuspects() {
	type target struct {
		slot, gen int
		c         *conn
	}
	var targets []target
	r.mu.Lock()
	for i := 0; i < r.n; i++ {
		if r.conns[i] != nil && r.state[i] == stateSuspect {
			targets = append(targets, target{i, r.gens[i], r.conns[i]})
		}
	}
	r.mu.Unlock()
	for _, t := range targets {
		if _, err := t.c.send(&envelope{Kind: kindPing}); err != nil {
			r.logf("heartbeat to worker %d (gen %d) failed, severing: %v", t.slot, t.gen, err)
			closeLogged(t.c, r.logf, "dead suspect connection")
		}
	}
}

// Per-assignment collection states.
const (
	asgLost      = iota // send failed, session died, or malformed result
	asgPending          // sent, result awaited
	asgDelivered        // result in outs
)

// roundState tracks one round's in-flight collection. Everything is indexed
// by the assignment's position, so what the round reports is in assignment
// order whatever order the results arrived in; the slices are reused from
// round to round. held lists the sessions whose decoded results the round
// delivered: they stay unreleased until the next round opens (Workers), past
// the round's aggregation, checkpoint and close.
type roundState struct {
	round  int
	index  []int         // worker slot -> assignment position + 1 (0: none)
	status []uint8       // per assignment: asgLost, asgPending, asgDelivered
	sentAt []float64     // per assignment: the run clock when its frame went out
	outs   []core.Output // per assignment: the result, once delivered

	pending, delivered int
	lost               []core.Assignment
	held               []*conn
	seconds            float64
}

// server is the TCP runtime's core.Executor: the registry decides who is
// assignable, Run dispatches and collects over the sockets, the wall
// clock (read through simclock, the run's one stopwatch) times it, and the
// checkpoint manager makes each closed round durable.
type server struct {
	cfg      ServerConfig
	reg      *registry
	logf     func(string, ...any)
	quantize bool // ship assignments int8-quantized and ask for quantized results
	ckpt     *checkpoint.Manager
	elapsed  func() float64 // seconds since the first round opened
	rs       roundState
}

// Serve runs the parameter server end to end: it accepts the configured
// number of workers, runs the rounds and shuts the workers down, returning
// the evaluation trajectory. The rounds are core.Driver's — the loop, the
// strategies and the bookkeeping the simulation runs, verbatim; only the
// executor differs (sockets and the wall clock instead of the cluster
// model).
//
// The round engine is fault tolerant: sends and receives fan out per worker
// under a single round deadline, a round aggregates as soon as Quorum
// results are in (plus a straggler grace period), workers that miss a round
// are marked suspect and skipped — not evicted — and are restored as soon as
// they answer again (late result, heartbeat pong, or a fresh connection
// presenting the same stable worker identity).
func Serve(fam core.Family, cfg ServerConfig) (*core.Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	logf := cfg.Logf
	coreCfg := cfg.Core
	coreCfg.Workers = cfg.Workers
	if coreCfg.Rounds == 0 {
		coreCfg.Rounds = cfg.Rounds
	}
	drv, err := core.NewDriver(fam, coreCfg)
	if err != nil {
		return nil, err
	}
	reg := newRegistry(cfg.Workers, logf)
	s := &server{cfg: cfg, reg: reg, logf: logf, quantize: drv.Config().QuantizeWire}

	// Durability: open the checkpoint directory and recover any prior
	// incarnation's state before accepting workers, so a restarted server
	// resumes the schedule instead of starting over and rejoining workers
	// are preseeded back into their old slots from the first hello.
	if cfg.CheckpointDir != "" {
		s.ckpt, err = checkpoint.Open(cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
		defer func() {
			if cerr := s.ckpt.Close(); cerr != nil {
				logf("closing checkpoint state: %v", cerr)
			}
		}()
		snap, info, rerr := s.ckpt.Recover()
		if rerr != nil {
			return nil, fmt.Errorf("transport: recovering checkpoint: %w", rerr)
		}
		if snap != nil {
			if err := drv.Restore(snap); err != nil {
				return nil, fmt.Errorf("transport: resuming from checkpoint: %w", err)
			}
			if err := reg.preseed(snap.Workers); err != nil {
				return nil, err
			}
			logf("recovered checkpoint: round %d from %s; resuming at round %d", snap.Round, info.File, snap.Round+1)
		}
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	logf("parameter server listening on %s, waiting for %d workers", ln.Addr(), cfg.Workers)
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		acceptLoop(ln, reg, cfg.HelloTimeout, logf)
	}()
	// The listening socket is released when the accept loop lets go of it,
	// not when Close returns: wait for that, so a supervisor can restart on
	// the same address the moment Serve returns.
	defer func() {
		reg.shutdown("done")
		ln.Close()
		<-accepting
	}()
	if cfg.Abort != nil {
		go func() {
			select {
			case <-cfg.Abort:
				// Listener first: a worker whose connection is severed
				// redials at once, and must find nobody home — a late hello
				// admitted here would be answered with a clean shutdown, and
				// the worker would not come back to the next incarnation.
				logf("abort: closing the listener and severing worker connections")
				if cerr := ln.Close(); cerr != nil && !errors.Is(cerr, net.ErrClosed) {
					logf("closing listener on abort: %v", cerr)
				}
				reg.kill()
			case <-reg.done:
			}
		}()
	}

	// Startup: wait (boundedly) until every slot has joined once.
	acceptDeadline := time.NewTimer(cfg.AcceptTimeout)
	defer acceptDeadline.Stop()
	for reg.connected() < cfg.Workers {
		select {
		case <-reg.joined:
		case <-reg.done:
			return nil, ErrAborted
		case <-acceptDeadline.C:
			return nil, fmt.Errorf("transport: only %d of %d workers joined within %v",
				reg.connected(), cfg.Workers, cfg.AcceptTimeout)
		}
	}

	start := simclock.Wall{}.Stopwatch()
	s.elapsed = func() float64 { return simclock.Wall{}.Since(start) }
	return drv.Drive(s)
}

// Workers implements core.Executor: the connected workers that are not
// suspect, after a heartbeat round has given the suspects a chance to answer.
func (s *server) Workers(round int) (assignable []int, suspect, behind int, err error) {
	select {
	case <-s.reg.done:
		return nil, 0, 0, ErrAborted
	default:
	}
	for _, c := range s.rs.held {
		c.release()
	}
	s.rs.held = s.rs.held[:0]
	s.reg.pingSuspects()
	if assignable, err = s.awaitLiveWorkers(round); err != nil {
		return nil, 0, 0, err
	}
	return assignable, len(s.reg.suspects()), 0, nil
}

// Idle implements core.Executor: a round nobody answered is run again under
// the same number, with whoever has been restored by then.
func (s *server) Idle(seconds, meanRoundTime float64) (float64, bool) {
	s.logf("round %d: no results; retrying with the restored worker set", s.rs.round)
	return 0, false
}

// Now implements core.Executor: wall seconds since the first round opened.
func (s *server) Now() float64 { return s.elapsed() }

// Closed implements core.Executor. The round is durable once its record —
// the full state — is fsync'd into its slot file. A durability failure is
// fatal: continuing would silently demote the recovery guarantee this server
// was configured for.
func (s *server) Closed(round int, eval *core.Point, snap func() *core.State) error {
	rs := &s.rs
	if eval != nil {
		s.logf("round %d: loss %.4f acc %.3f (%d/%d workers, %d dropped, %.2fs)",
			round, eval.Loss, eval.Acc, rs.delivered, s.cfg.Workers, len(rs.lost), rs.seconds)
	}
	// Drop the round's references — the dispatch-time global model each
	// output's Base holds — so it is collectable while the next round is
	// being assigned. The sub-models are the strategy's slot buffers,
	// rebuilt when their slots are; the decoded results are the sessions'
	// decoders', overwritten once the next round releases them (Workers).
	clear(rs.outs)
	clear(rs.lost)
	if s.ckpt == nil {
		return nil
	}
	st := snap()
	s.reg.identify(st.Workers)
	if err := s.ckpt.AppendRound(st); err != nil {
		return fmt.Errorf("transport: checkpointing round %d: %w", round, err)
	}
	return nil
}

// acceptLoop admits connections for the server's whole lifetime so workers
// can rejoin mid-training; each hello is handled concurrently under its own
// deadline so a silent client cannot stall anyone else.
func acceptLoop(ln net.Listener, reg *registry, helloTimeout time.Duration, logf func(string, ...any)) {
	for {
		raw, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // orderly: the listener closed on shutdown
			}
			logf("accept loop stopping: %v", err)
			return
		}
		go func(raw net.Conn) {
			c := newConn(raw)
			e, _, err := c.recv(helloTimeout)
			if err != nil || e.Kind != kindHello {
				closeLogged(c, logf, "silent connection")
				logf("rejecting connection %v: bad or missing hello", raw.RemoteAddr())
				return
			}
			reg.admit(c, e.Hello)
		}(raw)
	}
}

// awaitLiveWorkers returns the current active worker set, waiting up to the
// round timeout for a suspect to answer or a rejoin when the set is empty.
func (s *server) awaitLiveWorkers(round int) ([]int, error) {
	live := s.reg.active()
	if len(live) > 0 {
		return live, nil
	}
	s.logf("round %d: no live workers, waiting for a rejoin", round)
	deadline := time.NewTimer(s.cfg.RoundTimeout)
	defer deadline.Stop()
	for {
		select {
		case ev := <-s.reg.events:
			s.handleEvent(ev, nil)
		case <-s.reg.joined:
		case <-s.reg.done:
			return nil, ErrAborted
		case <-deadline.C:
			return nil, fmt.Errorf("transport: every worker has disconnected")
		}
		if live = s.reg.active(); len(live) > 0 {
			return live, nil
		}
	}
}

// Run implements core.Executor: it fans the assignments out to their workers
// and collects results until everyone answered, the quorum-plus-grace closes
// the round, or the round deadline expires. Workers that do not deliver are
// marked suspect and their assignments reported as lost. An abort
// mid-collection surfaces as ErrAborted; the round's results are discarded
// (its checkpoint record was never written, so recovery replays the round).
func (s *server) Run(round int, assignments []core.Assignment) (delivered []core.Output, lost []core.Assignment, seconds float64, err error) {
	begin := s.elapsed()
	n := len(assignments)
	rs := &s.rs
	rs.round = round
	rs.index = slices.Grow(rs.index[:0], s.cfg.Workers)[:s.cfg.Workers]
	clear(rs.index)
	rs.status = slices.Grow(rs.status[:0], n)[:n]
	rs.sentAt = slices.Grow(rs.sentAt[:0], n)[:n]
	rs.outs = slices.Grow(rs.outs[:0], n)[:n]
	rs.delivered = 0

	// Fan out sends; each is bounded by the connection write deadline and
	// writes only its own assignment's entries.
	var wg sync.WaitGroup
	for i := range assignments {
		rs.index[assignments[i].Worker] = i + 1
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a := &assignments[i]
			// With quantization on, the codec encodes each tensor int8
			// whenever that is cheaper; the worker then trains on the
			// dequantized reconstruction while this server keeps (and later
			// reconstructs against) the full-precision weights.
			rs.sentAt[i] = s.elapsed()
			sent, err := s.reg.send(a.Worker, a.Frame(round, s.quantize))
			if err != nil {
				s.logf("round %d: send to worker %d failed (%v)", round, a.Worker, err)
				rs.status[i] = asgLost
				s.reg.markSuspect(a.Worker)
				return
			}
			rs.status[i] = asgPending
			rs.outs[i] = core.Output{Assignment: *a, DownBytes: int64(sent)}
		}(i)
	}
	wg.Wait()
	rs.pending = 0
	for _, st := range rs.status {
		if st == asgPending {
			rs.pending++
		}
	}

	needed := min(s.cfg.Quorum, rs.pending)
	deadline := time.NewTimer(s.cfg.RoundTimeout)
	defer deadline.Stop()
	var grace *time.Timer
	var graceC <-chan time.Time
	defer func() {
		if grace != nil {
			grace.Stop()
		}
	}()
collect:
	for rs.pending > 0 {
		if rs.delivered >= needed && graceC == nil {
			grace = time.NewTimer(s.cfg.StragglerGrace)
			graceC = grace.C
		}
		select {
		case ev := <-s.reg.events:
			s.handleEvent(ev, rs)
		case <-s.reg.done:
			return nil, nil, 0, ErrAborted
		case <-graceC:
			s.logf("round %d: quorum %d reached, grace expired with %d still in flight",
				round, needed, rs.pending)
			break collect
		case <-deadline.C:
			s.logf("round %d: deadline expired with %d still in flight", round, rs.pending)
			break collect
		}
	}
	// The report, in assignment order: results are compacted to the front
	// of outs, and whoever is still pending missed the round — suspect, not
	// evicted.
	rs.lost = rs.lost[:0]
	k := 0
	for i, st := range rs.status {
		switch st {
		case asgDelivered:
			rs.outs[k] = rs.outs[i]
			k++
			continue
		case asgPending:
			s.logf("round %d: worker %d missed the round, marking suspect", round, assignments[i].Worker)
			s.reg.markSuspect(assignments[i].Worker)
		}
		rs.lost = append(rs.lost, assignments[i])
	}
	clear(rs.outs[k:])
	rs.seconds = s.elapsed() - begin
	return rs.outs[:k], rs.lost, rs.seconds, nil
}

// handleEvent folds one session event into the round state. rs may be nil
// (between rounds); results for other rounds are drained and discarded, and
// any frame from a suspect worker restores it. A delivered result is adopted
// as its output's NewWeights, so its session joins rs.held; every other
// frame's session is released at once.
func (s *server) handleEvent(ev event, rs *roundState) {
	// i is the position of the worker's assignment while it is pending.
	i := -1
	if rs != nil && rs.index[ev.worker] > 0 && rs.status[rs.index[ev.worker]-1] == asgPending {
		i = rs.index[ev.worker] - 1
	}
	if ev.env == nil {
		// Disconnect: a pending assignment on that session is lost.
		s.logf("worker %d disconnected", ev.worker)
		if i >= 0 {
			rs.status[i] = asgLost
			rs.pending--
		}
		return
	}
	switch ev.env.Kind {
	case kindResult:
		r := ev.env.Result
		if rs == nil || r.Round != rs.round {
			s.logf("discarding stale result from worker %d (round %d)", ev.worker, r.Round)
			s.reg.restore(ev.worker)
			break
		}
		if i < 0 {
			s.logf("discarding duplicate result from worker %d", ev.worker)
			break
		}
		rs.pending--
		// Traffic is charged from the measured frames: the assignment frame
		// this round-trip started with (DownBytes, set when it went out) and
		// the result frame that just arrived — the same sizes
		// codec.FrameBytes predicts, so the cluster simulation's accounting
		// and this runtime's agree byte for byte.
		o := &rs.outs[i]
		o.Total = s.elapsed() - rs.sentAt[i]
		o.CompTime, o.CommTime = r.CompSeconds, max(o.Total-r.CompSeconds, 0)
		o.UpBytes = int64(ev.bytes)
		if err := o.Receive(r); err != nil {
			s.logf("round %d: malformed result from worker %d (%v), dropping it", rs.round, ev.worker, err)
			rs.status[i] = asgLost
			break
		}
		rs.status[i] = asgDelivered
		rs.delivered++
		rs.held = append(rs.held, ev.from)
		return
	case kindPong:
		s.reg.restore(ev.worker)
	case kindHello:
		// A second hello on an established session is a protocol error;
		// ignore it rather than killing the worker.
		s.logf("ignoring redundant hello from worker %d", ev.worker)
	default:
		s.logf("ignoring unexpected frame kind %d from worker %d", ev.env.Kind, ev.worker)
	}
	ev.from.release()
}
