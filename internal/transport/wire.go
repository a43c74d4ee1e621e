// Package transport provides a real distributed runtime for the federated
// framework: a parameter server and workers exchanging length-prefixed
// binary frames (internal/transport/codec) over TCP. The paper deploys
// FedMP on a physical testbed (one workstation PS plus Jetson workers); this
// package is the equivalent network runtime — the same core strategies
// drive it, but completion times are measured on the wall clock instead of
// the cluster simulation, and traffic is accounted from the measured frame
// sizes rather than a parameter-count estimate.
package transport

import (
	"bufio"
	"net"
	"time"

	"fedmp/internal/simclock"
	"fedmp/internal/transport/codec"
)

// The wire vocabulary is defined once in internal/transport/codec — the
// simulation engine prices its virtual communication with the same size
// model — and aliased here so the server and worker read naturally.
type (
	envelope    = codec.Envelope
	helloMsg    = codec.Hello
	assignMsg   = codec.Assign
	resultMsg   = codec.Result
	shutdownMsg = codec.Shutdown
)

// Message kinds.
const (
	kindHello    = codec.KindHello
	kindAssign   = codec.KindAssign
	kindResult   = codec.KindResult
	kindShutdown = codec.KindShutdown
	kindPing     = codec.KindPing
	kindPong     = codec.KindPong
)

// conn wraps a TCP connection with the frame codec and deadlines. The reads
// go through a bufio.Reader so the codec's fixed-size header reads do not
// each cost a syscall; writes are already one syscall per frame (the codec
// emits each frame with a single Write).
type conn struct {
	raw net.Conn
	br  *bufio.Reader
	dec *codec.Decoder // lazily built by recvReuse; nil until first use
}

func newConn(raw net.Conn) *conn {
	return &conn{raw: raw, br: bufio.NewReaderSize(raw, 64<<10)}
}

// send encodes and writes one frame, returning its exact wire size.
func (c *conn) send(e *envelope) (int, error) {
	if err := c.raw.SetWriteDeadline(simclock.Deadline(ioTimeout)); err != nil {
		return 0, err
	}
	return codec.WriteFrame(c.raw, e)
}

// recv reads and decodes one frame, returning its exact wire size alongside
// the envelope. Each call allocates a fresh envelope, so the caller may
// retain it indefinitely — the server's per-connection readers hand
// envelopes to the round loop's goroutine and need exactly that.
func (c *conn) recv(timeout time.Duration) (*envelope, int, error) {
	if err := c.raw.SetReadDeadline(simclock.Deadline(timeout)); err != nil {
		return nil, 0, err
	}
	return codec.ReadFrame(c.br)
}

// recvReuse reads one frame through a per-connection recycling decoder: the
// returned envelope and everything reachable from it (tensors included) are
// overwritten by the next recvReuse call. The worker's serve loop qualifies
// — it finishes each assignment and sends its result before reading the next
// frame — and in steady state decodes a round's assignment without heap
// allocation.
func (c *conn) recvReuse(timeout time.Duration) (*envelope, int, error) {
	if err := c.raw.SetReadDeadline(simclock.Deadline(timeout)); err != nil {
		return nil, 0, err
	}
	if c.dec == nil {
		c.dec = codec.NewDecoder(c.br)
	}
	return c.dec.ReadFrame()
}

func (c *conn) close() error { return c.raw.Close() }

// closeLogged closes c on a best-effort teardown path: the session is over
// either way, but a failing close still earns a log line instead of being
// silently dropped.
func closeLogged(c *conn, logf func(string, ...any), who string) {
	if err := c.close(); err != nil {
		logf("closing %s: %v", who, err)
	}
}

// sendShutdownLogged sends a shutdown frame without propagating the error:
// the peer may already be gone, which is exactly why it is being shut down.
func sendShutdownLogged(c *conn, reason string, logf func(string, ...any)) {
	if _, err := c.send(&envelope{Kind: kindShutdown, Shutdown: &shutdownMsg{Reason: reason}}); err != nil {
		logf("shutdown frame (%s): %v", reason, err)
	}
}

// ioTimeout bounds individual sends; round-level receives use the server's
// configured round timeout.
const ioTimeout = 30 * time.Second
