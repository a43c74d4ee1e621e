package transport

import (
	"errors"
	"fmt"
	"net"
	"time"

	"fedmp/internal/core"
	"fedmp/internal/nn"
	"fedmp/internal/simclock"
	"fedmp/internal/tensor"
)

// WorkerConfig parameterises one edge worker process.
type WorkerConfig struct {
	// Addr is the parameter server's address.
	Addr string
	// Name is a human-readable label sent at registration.
	Name string
	// ID is the worker's stable identity. A worker that reconnects with
	// the same ID re-enters its old slot on the server mid-training.
	// Empty selects a random per-process identity (rejoin still works
	// across reconnects, just not across process restarts).
	ID string
	// LR and Momentum configure the local optimiser.
	LR, Momentum float32
	// MaxDialAttempts bounds the backoff-with-jitter retry loop each time
	// the worker (re)connects (default 12, spanning ~30s).
	MaxDialAttempts int
	// MaxReconnects bounds how many times a lost session is re-established
	// before giving up (default 5; negative disables reconnecting).
	MaxReconnects int
	// Logf receives progress lines (nil silences logging).
	Logf func(format string, args ...any)
	// Clock charges the CompSeconds a worker reports with each result.
	// nil means the wall clock (simclock.Wall); tests inject
	// simclock.Fixed for reproducible timing without real sleeps.
	Clock simclock.Clock
}

// errShutdown distinguishes an orderly server shutdown from a broken
// session inside the worker loop.
var errShutdown = errors.New("transport: server shutdown")

// RunWorker connects to the parameter server and serves training rounds
// until the server sends a shutdown. fam builds networks for incoming model
// descriptions; src supplies this worker's local data.
//
// The worker is fault tolerant: a dropped connection is re-established with
// exponential backoff and jitter (escalating across consecutive failures,
// reset to the base interval once a round completes), the hello carries a
// stable identity so the server restores the worker into its old slot, and
// assignments for rounds the worker already served (or missed while away)
// are discarded instead of trained. One exception: the first assignment of
// a fresh session may rewind the round counter — a server restarted from a
// checkpoint legitimately resumes one round behind where this worker last
// trained, and refusing the rewind would deadlock the recovery.
func RunWorker(fam core.Family, src core.Source, cfg WorkerConfig) error {
	if cfg.LR == 0 {
		cfg.LR = 0.05
	}
	if cfg.Momentum == 0 {
		cfg.Momentum = 0.9
	}
	if cfg.MaxDialAttempts == 0 {
		cfg.MaxDialAttempts = defaultDialAttempts
	}
	if cfg.MaxReconnects == 0 {
		cfg.MaxReconnects = 5
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	bo := newBackoff(0, 0, time.Now().UnixNano())
	if cfg.ID == "" {
		cfg.ID = fmt.Sprintf("%s-%d", cfg.Name, time.Now().UnixNano())
	}

	// One cache for the worker's lifetime: sessions come and go, the
	// sub-model shapes the server sends repeat.
	nets := core.NewNetCache(fam, cfg.LR, cfg.Momentum, 0)
	lastRound := 0
	var leftover []*tensor.Tensor
	for session := 0; ; session++ {
		c, err := dial(cfg.Addr, bo, cfg.MaxDialAttempts)
		if err != nil {
			return err
		}
		if _, err := c.send(&envelope{Kind: kindHello, Hello: &helloMsg{Name: cfg.Name, ID: cfg.ID}}); err != nil {
			closeLogged(c, logf, "connection")
			return fmt.Errorf("transport: hello: %w", err)
		}
		logf("connected to %s (session %d)", cfg.Addr, session)
		err = serveConn(c, nets, src, cfg, &lastRound, &leftover, bo, logf)
		closeLogged(c, logf, "session connection")
		if errors.Is(err, errShutdown) {
			return nil
		}
		if session >= cfg.MaxReconnects || cfg.MaxReconnects < 0 {
			return fmt.Errorf("transport: session lost and reconnect budget exhausted: %w", err)
		}
		logf("session lost (%v), reconnecting", err)
	}
}

// serveConn runs one session: it answers heartbeats and trains assignments
// until the connection breaks or the server shuts the worker down.
// leftover (see trainAssignment) and lastRound persist across sessions, the
// latter so stale assignments — work orders for rounds the worker already
// served before a reconnect — are discarded. The
// session's first assignment is exempt: a lower round number there means the
// server restarted from a checkpoint and rewound, and the worker follows it.
// Completing a round (result sent) resets the shared backoff schedule.
func serveConn(c *conn, nets *core.NetCache, src core.Source, cfg WorkerConfig, lastRound *int, leftover *[]*tensor.Tensor, bo *backoff, logf func(string, ...any)) error {
	firstAssign := true
	for {
		// The recycling decoder is safe here because every arm below fully
		// consumes the envelope (result sent, log line printed) before the
		// loop reads the next frame.
		e, _, err := c.recvReuse(idleTimeout)
		if err != nil {
			return fmt.Errorf("transport: receiving assignment: %w", err)
		}
		switch e.Kind {
		case kindShutdown:
			logf("shutdown: %s", e.Shutdown.Reason)
			return errShutdown
		case kindPing:
			if _, err := c.send(&envelope{Kind: kindPong}); err != nil {
				return fmt.Errorf("transport: answering heartbeat: %w", err)
			}
		case kindAssign:
			if e.Assign.Round <= *lastRound {
				if !firstAssign {
					logf("discarding stale assignment for round %d (already at %d)", e.Assign.Round, *lastRound)
					continue
				}
				// First assignment of a fresh session: the server restarted
				// from a checkpoint and legitimately rewound the round
				// counter. Accept it — its weights carry the recovered
				// global state, so retraining is correct, not duplicate work.
				logf("accepting round rewind %d -> %d (server recovered from checkpoint)",
					*lastRound, e.Assign.Round)
			}
			firstAssign = false
			res, err := trainAssignment(nets, src, e.Assign, cfg, leftover)
			if err != nil {
				return err
			}
			*lastRound = e.Assign.Round
			// An assignment that arrived quantized asks for a quantized
			// result; the codec still keeps any tensor where int8 would not
			// be byte-cheaper at full precision.
			if _, err := c.send(&envelope{Kind: kindResult, Result: res, Quantize: e.Assign.Quantize}); err != nil {
				return fmt.Errorf("transport: sending result: %w", err)
			}
			bo.reset()
			logf("round %d done: loss %.4f (ratio %.2f, %d params)",
				e.Assign.Round, res.TrainLoss, e.Assign.Ratio, nn.WeightsSize(e.Assign.Weights))
		default:
			return fmt.Errorf("transport: unexpected message kind %d", e.Kind)
		}
	}
}

// trainAssignment answers one assignment: the simulation engine's worker step
// (core.WorkerStep) under this worker's stopwatch, which brackets the whole
// step — training and building the upload. leftover is the worker's top-K
// compression error, carried from one assignment into the next.
func trainAssignment(nets *core.NetCache, src core.Source, a *assignMsg, cfg WorkerConfig, leftover *[]*tensor.Tensor) (*resultMsg, error) {
	clock := cfg.Clock
	if clock == nil {
		clock = simclock.Wall{}
	}
	elapsed := clock.Stopwatch()
	res, err := core.WorkerStep(nets, src, a, 1, leftover)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	res.CompSeconds = elapsed()
	return res, nil
}

// dial connects to the server, retrying on the shared backoff-with-jitter
// schedule so workers can start before the server finishes binding (and can
// ride out brief server restarts when reconnecting). The schedule's attempt
// counter carries over between dial loops — a flapping server that accepts
// connections and dies keeps escalating the delay until a round completes.
func dial(addr string, bo *backoff, attempts int) (*conn, error) {
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		raw, err := net.DialTimeout("tcp", addr, ioTimeout)
		if err == nil {
			return newConn(raw), nil
		}
		lastErr = err
		time.Sleep(bo.next())
	}
	return nil, fmt.Errorf("transport: dialing %s: %w", addr, lastErr)
}
