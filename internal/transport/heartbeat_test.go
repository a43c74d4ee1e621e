package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// deadConn is a stub net.Conn modelling a peer whose network died: writes
// fail immediately, reads block until the connection is closed — exactly
// the state a suspect worker's TCP session is in when its host vanishes.
type deadConn struct {
	closed chan struct{}
	once   sync.Once
}

func newDeadConn() *deadConn { return &deadConn{closed: make(chan struct{})} }

func (d *deadConn) Read(b []byte) (int, error) {
	<-d.closed
	return 0, net.ErrClosed
}

func (d *deadConn) Write(b []byte) (int, error) { return 0, errors.New("broken pipe") }

func (d *deadConn) Close() error {
	d.once.Do(func() { close(d.closed) })
	return nil
}

func (d *deadConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (d *deadConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (d *deadConn) SetDeadline(t time.Time) error      { return nil }
func (d *deadConn) SetReadDeadline(t time.Time) error  { return nil }
func (d *deadConn) SetWriteDeadline(t time.Time) error { return nil }

// TestPingSuspectsSeversDeadConnection pins the heartbeat teardown path: a
// suspect whose heartbeat send fails must have its connection severed so
// the blocked per-connection reader unblocks and drops the slot now —
// previously the failure was only logged and the dead suspect stayed
// "connected" until the 24h idle timeout expired.
func TestPingSuspectsSeversDeadConnection(t *testing.T) {
	reg := newRegistry(1, func(string, ...any) {})
	defer reg.closeDone()
	reg.admit(newConn(newDeadConn()), &helloMsg{Name: "w0", ID: "w0"})
	if got := reg.connected(); got != 1 {
		t.Fatalf("connected() = %d after admit, want 1", got)
	}
	reg.markSuspect(0)
	if got := reg.suspects(); len(got) != 1 {
		t.Fatalf("suspects() = %v, want [0]", got)
	}

	reg.pingSuspects()

	// The failed send must close the captured connection, unblocking the
	// reader goroutine admit spawned; its recv error runs the drop path and
	// pushes a disconnect event (env == nil).
	select {
	case ev := <-reg.events:
		if ev.env != nil {
			t.Fatalf("expected a disconnect event, got a frame from worker %d", ev.worker)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never unblocked: heartbeat failure did not sever the dead connection")
	}
	if got := reg.connected(); got != 0 {
		t.Fatalf("connected() = %d after sever, want 0", got)
	}
	if got := reg.suspects(); len(got) != 0 {
		t.Fatalf("suspects() = %v after sever, want none", got)
	}
}

// TestPingSuspectsLeavesHealthySuspects pins the other half: a suspect
// whose transport still accepts the ping frame is left connected — only the
// answering worker (or the idle timeout) decides its fate.
func TestPingSuspectsLeavesHealthySuspects(t *testing.T) {
	reg := newRegistry(1, func(string, ...any) {})
	defer reg.closeDone()
	serverRaw, workerRaw := net.Pipe()
	defer workerRaw.Close()
	reg.admit(newConn(serverRaw), &helloMsg{Name: "w0", ID: "w0"})
	reg.markSuspect(0)

	// Drain the worker side so the synchronous pipe write completes.
	go func() {
		buf := make([]byte, 256)
		for {
			if _, err := workerRaw.Read(buf); err != nil {
				return
			}
		}
	}()
	reg.pingSuspects()

	if got := reg.connected(); got != 1 {
		t.Fatalf("connected() = %d after successful ping, want 1", got)
	}
	if got := reg.suspects(); len(got) != 1 {
		t.Fatalf("suspects() = %v after successful ping, want [0]", got)
	}
}

// TestSuspectHeartbeatOverPipe is the parameter-server twin of
// TestHeartbeatAndResultOverPipe: the frames a suspect slot sees and what
// the answers do to it. A suspect receives exactly one ping per heartbeat
// round, a pong restores it to the live set, and a peer that has gone away
// is dropped rather than left suspect.
func TestSuspectHeartbeatOverPipe(t *testing.T) {
	logf := func(string, ...any) {}
	reg := newRegistry(1, logf)
	defer reg.closeDone()
	s := &server{reg: reg, logf: logf}
	serverRaw, workerRaw := net.Pipe()
	worker := newConn(workerRaw)
	reg.admit(newConn(serverRaw), &helloMsg{Name: "w0", ID: "w0"})
	reg.markSuspect(0)

	pinged := make(chan struct{})
	go func() {
		defer close(pinged)
		reg.pingSuspects()
	}()
	e, _, err := worker.recv(5 * time.Second)
	if err != nil {
		t.Fatalf("suspect never heard from the server: %v", err)
	}
	if e.Kind != kindPing {
		t.Fatalf("heartbeat arrived as kind %d, want ping", e.Kind)
	}
	// The pipe is synchronous: a second frame would be sitting in a blocked
	// write right now.
	if e, _, err := worker.recv(100 * time.Millisecond); err == nil {
		t.Fatalf("second frame (kind %d) in one heartbeat round", e.Kind)
	}
	<-pinged
	if got := reg.suspects(); len(got) != 1 {
		t.Fatalf("suspects() = %v after an unanswered ping, want [0]", got)
	}

	if _, err := worker.send(&envelope{Kind: kindPong}); err != nil {
		t.Fatal(err)
	}
	s.handleEvent(<-reg.events, nil)
	if got := reg.active(); len(got) != 1 || len(reg.suspects()) != 0 {
		t.Fatalf("after the pong: active %v, suspects %v; want [0] and none", got, reg.suspects())
	}
	// A late pong — the answer to an earlier heartbeat, arriving after the
	// worker is back — changes nothing and leaves the registry usable.
	if _, err := worker.send(&envelope{Kind: kindPong}); err != nil {
		t.Fatal(err)
	}
	s.handleEvent(<-reg.events, nil)
	settles(t, "active() after a late pong", func() {
		if got := reg.active(); len(got) != 1 {
			t.Errorf("after a late pong: active %v, want [0]", got)
		}
	})

	reg.markSuspect(0)
	if err := workerRaw.Close(); err != nil {
		t.Fatal(err)
	}
	reg.pingSuspects()
	if ev := <-reg.events; ev.env != nil {
		t.Fatalf("expected a disconnect event, got a kind-%d frame", ev.env.Kind)
	}
	if reg.connected() != 0 || len(reg.suspects()) != 0 {
		t.Fatalf("dead suspect lingers: %d connected, suspects %v", reg.connected(), reg.suspects())
	}
}

// settles runs fn and fails the test when it has not returned within five
// seconds: a registry lock some path forgot to release hangs its next caller.
func settles(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never returned: a registry lock was left held", what)
	}
}

// hungUp reports whether a receive failed because the peer closed the
// connection. Over net.Pipe that is io.EOF when the read was already waiting
// and io.ErrClosedPipe when the close came first.
func hungUp(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe)
}

// TestShutdownIsOneFrameThenClose pins what a worker sees when the server
// finishes: one shutdown frame carrying the reason, then the end of the
// stream — not silence, not a second frame, not a socket left open.
func TestShutdownIsOneFrameThenClose(t *testing.T) {
	reg := newRegistry(1, func(string, ...any) {})
	serverRaw, workerRaw := net.Pipe()
	defer workerRaw.Close()
	worker := newConn(workerRaw)
	reg.admit(newConn(serverRaw), &helloMsg{Name: "w0", ID: "w0"})

	go reg.shutdown("done")
	e, _, err := worker.recv(5 * time.Second)
	if err != nil {
		t.Fatalf("no goodbye before the hangup: %v", err)
	}
	if e.Kind != kindShutdown || e.Shutdown.Reason != "done" {
		t.Fatalf("goodbye is kind %d (%+v), want shutdown with reason \"done\"", e.Kind, e.Shutdown)
	}
	if e, _, err := worker.recv(5 * time.Second); !hungUp(err) {
		t.Fatalf("after the shutdown frame: %+v, %v; want end of stream", e, err)
	}
	settles(t, "connected() after shutdown", func() {
		if n := reg.connected(); n != 0 {
			t.Errorf("%d connections after shutdown, want 0", n)
		}
	})
}
