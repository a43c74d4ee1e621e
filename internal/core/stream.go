package core

import "fedmp/internal/metrics"

// StreamStats is the constant-memory replacement for the per-round
// Stats/Points slices: every statistic a long-running scale experiment
// needs, folded online. Enabled by Config.StreamMetrics; carried on
// Result.Stream. All fields are exported so the aggregate survives JSON
// (the determinism tests fingerprint a Result that way).
type StreamStats struct {
	// Rounds counts completed rounds folded in.
	Rounds int64
	// RoundTime aggregates per-round virtual durations; the P² fields
	// estimate its median and tails.
	RoundTime    metrics.Welford
	RoundTimeP50 metrics.P2
	RoundTimeP95 metrics.P2
	RoundTimeP99 metrics.P2
	// CompTime and CommTime aggregate the per-round participant means.
	CompTime metrics.Welford
	CommTime metrics.Welford
	// Participants aggregates the per-round participant count.
	Participants metrics.Welford
	// DownBytes/UpBytes are run totals over participating workers.
	DownBytes, UpBytes int64
	// Dropped and Suspect are run totals of lost assignments and devices
	// skipped while recovering.
	Dropped, Suspect int64

	// Evals counts evaluations; LastRound/LastTime/LastLoss/LastAcc are
	// the most recent one, BestAcc the best accuracy seen so far.
	Evals     int64
	LastRound int
	LastTime  float64
	LastLoss  float64
	LastAcc   float64
	BestAcc   float64
}

// newStreamStats returns an aggregate with the quantile estimators armed.
func newStreamStats() *StreamStats {
	return &StreamStats{
		RoundTimeP50: metrics.NewP2(0.5),
		RoundTimeP95: metrics.NewP2(0.95),
		RoundTimeP99: metrics.NewP2(0.99),
	}
}

// observeRound folds one completed round.
func (s *StreamStats) observeRound(roundTime, comp, comm float64, down, up int64, participants, dropped, suspect int) {
	s.Rounds++
	s.RoundTime.Observe(roundTime)
	s.RoundTimeP50.Observe(roundTime)
	s.RoundTimeP95.Observe(roundTime)
	s.RoundTimeP99.Observe(roundTime)
	s.CompTime.Observe(comp)
	s.CommTime.Observe(comm)
	s.Participants.Observe(float64(participants))
	s.DownBytes += down
	s.UpBytes += up
	s.Dropped += int64(dropped)
	s.Suspect += int64(suspect)
}

// observeEval folds one evaluation of the global model.
func (s *StreamStats) observeEval(round int, now, loss, acc float64) {
	s.Evals++
	s.LastRound = round
	s.LastTime = now
	s.LastLoss = loss
	s.LastAcc = acc
	if acc > s.BestAcc {
		s.BestAcc = acc
	}
}
