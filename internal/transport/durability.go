package transport

import (
	"errors"
	"fmt"

	"fedmp/internal/transport/codec"
)

// ErrAborted reports that Serve stopped because its Abort channel fired
// before the schedule finished. Every round completed before the abort is
// durable when a checkpoint directory is configured; a restarted server
// resumes from the round after the last one it closed.
var ErrAborted = errors.New("transport: server aborted")

// preseed restores the identity table from a recovered snapshot so workers
// reconnecting after a server restart land back in their old slots (and keep
// their bandit state, ratio history and per-slot timing). Must run before
// the accept loop starts.
func (r *registry) preseed(ws []codec.WorkerState) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range ws {
		if w.Slot < 0 || w.Slot >= r.n {
			return fmt.Errorf("transport: checkpoint worker slot %d outside 0..%d (was the server restarted with fewer workers?)",
				w.Slot, r.n-1)
		}
		if w.ID != "" {
			r.slots[w.ID] = w.Slot
		}
		r.names[w.Slot] = w.Name
		if w.Slot+1 > r.next {
			r.next = w.Slot + 1
		}
	}
	return nil
}

// identify fills a snapshot's worker table (one entry per slot, as
// core.Driver builds it) with what the registry owns of it: the stable ID
// (empty when the worker never presented one) and display name of every slot
// that has been assigned.
func (r *registry) identify(ws []codec.WorkerState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, slot := range r.slots {
		ws[slot].ID = id
	}
	for slot := range ws {
		ws[slot].Name = r.names[slot]
	}
}

// kill tears down every connection without the shutdown handshake,
// simulating a crash: workers see a broken session instead of an orderly
// goodbye and enter their reconnect loops, which is exactly the client
// behaviour a restarted server relies on.
func (r *registry) kill() {
	r.closeDone()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, c := range r.conns {
		if c == nil {
			continue
		}
		closeLogged(c, r.logf, "killed connection")
		r.conns[i] = nil
		r.state[i] = stateDown
	}
}
