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

// conn wraps a TCP connection with the frame codec and deadlines. Frames are
// decoded by one recycling Decoder for the whole session, reading through a
// bufio.Reader so the codec's fixed-size header reads do not each cost a
// syscall; writes are already one syscall per frame (the codec emits each
// frame with a single Write). free carries the parameter server's release of
// the last envelope the session's reader delivered (registry.read).
type conn struct {
	raw  net.Conn
	dec  *codec.Decoder
	free chan struct{}
}

func newConn(raw net.Conn) *conn {
	return &conn{raw: raw, dec: codec.NewDecoder(bufio.NewReaderSize(raw, 64<<10)), free: make(chan struct{}, 1)}
}

// send encodes and writes one frame, returning its exact wire size.
func (c *conn) send(e *envelope) (int, error) {
	if err := c.raw.SetWriteDeadline(simclock.Deadline(ioTimeout)); err != nil {
		return 0, err
	}
	return codec.WriteFrame(c.raw, e)
}

// recv reads and decodes one frame, returning its exact wire size alongside
// the envelope. The envelope and everything reachable from it (tensors
// included) are the session decoder's and are overwritten by the next recv,
// so a steady-state frame decodes without heap allocation. The worker's
// serve loop finishes each frame before reading the next; the server's
// readers wait for release instead.
func (c *conn) recv(timeout time.Duration) (*envelope, int, error) {
	if err := c.raw.SetReadDeadline(simclock.Deadline(timeout)); err != nil {
		return nil, 0, err
	}
	return c.dec.ReadFrame()
}

// release lets the session's reader decode its next frame: the round loop no
// longer reads the envelope it was handed. One release answers one delivery.
func (c *conn) release() { c.free <- struct{}{} }

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
