package core

import (
	"fmt"
	"math"

	"fedmp/internal/nn"
	"fedmp/internal/tensor"
)

// Executor is what differs between the ways a round can run: on the simulated
// cluster in lockstep (runner: virtual time on simsched), on the simulated
// cluster under Alg. 2 (asyncExec: the first m arrivals of everything in
// flight), or on the TCP parameter server (internal/transport: the registry
// and the wall clock). The Driver asks it five questions per round and owns
// everything else.
type Executor interface {
	// Workers opens round: it returns the worker slots to assign now, in an
	// order that never depends on timing, and how many more are skipped as
	// suspect (recovering from a crash, or connected but silent). It may
	// block until a worker is available; an empty list is a round nobody is
	// assigned in. behind is how far this dispatch's number trails round —
	// strategies see RoundInfo.Round = round − behind: 0 where a round
	// dispatches and aggregates under one number, 1 under Alg. 2 (see
	// asyncBehind).
	Workers(round int) (assignable []int, suspect, behind int, err error)
	// Run executes the round's assignments and reports whose results to
	// aggregate and whose assignments were lost — from this dispatch or an
	// earlier one — each in an order that never depends on timing, so that
	// aggregation sums and bandit bookkeeping are repeatable: assignment
	// order for lockstep rounds whatever order results arrived in, virtual
	// arrival order with first-in-first-out ties for Alg. 2. seconds is the
	// round's duration. Both slices are the executor's, valid until Closed
	// returns.
	Run(round int, assignments []Assignment) (delivered []Output, lost []Assignment, seconds float64, err error)
	// Idle is asked when a round delivered nothing, after seconds of it
	// were spent: it returns the duration to close the round with, or false
	// to have the same round number run again.
	Idle(seconds, meanRoundTime float64) (float64, bool)
	// Now is the run's clock in seconds.
	Now() float64
	// Closed ends a recorded round; an error is fatal to the run. eval is
	// the round's evaluation when it had one. snap builds the run's
	// resumable state as a borrowed view: it aliases the live global model
	// and the driver's slices, and is valid only until Closed returns.
	Closed(round int, eval *Point, snap func() *State) error
}

// maxBarrenRounds bounds how many consecutive times a round may be run again
// because it delivered nothing (a liveness backstop, not a scheduling
// parameter).
const maxBarrenRounds = 5

// Driver is the one round state machine (Fig. 1, Alg. 1 and Alg. 2): it owns
// the strategy, the global model and the ledger the strategies read through
// RoundInfo — loss baseline, per-worker times, round-time accumulator, last
// ratios — plus the evaluation network and the Result, and it is the only
// code that builds a RoundInfo, calls the strategy, records a RoundStat,
// evaluates, checks targets and budgets, and exports or restores resumable
// state. Whom a round dispatches and what it waits for are the Executor's.
type Driver struct {
	cfg      Config
	strategy Strategy
	evalNet  nn.Network
	testB    *nn.Batch

	global    []*tensor.Tensor
	prevLoss  float64
	prevTimes []float64
	prevComm  []float64
	lastRatio []float64
	roundSum  float64
	roundCnt  int

	// infoTimes/infoComm back the RoundInfo's per-worker snapshots:
	// strategies may read them only during the round they were built for, so
	// one buffer each serves every round without allocation.
	infoTimes []float64
	infoComm  []float64

	// view backs the borrowed snapshot handed to Executor.Closed.
	view State

	// stream receives per-round/per-eval observations instead of the
	// Stats/Points appends when cfg.StreamMetrics is set.
	stream *StreamStats
	res    *Result
}

// NewDriver validates cfg and builds the runtime-independent half of a run:
// strategy, freshly initialised global model, evaluation network and test
// batch. It builds nothing only one runtime needs (data sources, devices,
// schedulers).
func NewDriver(fam Family, cfg Config) (*Driver, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	d := &Driver{cfg: cfg}
	if d.strategy, err = NewStrategy(fam, &d.cfg); err != nil {
		return nil, err
	}
	if d.evalNet, err = fam.BuildNet(fam.FullDesc(), cfg.Seed); err != nil {
		return nil, err
	}
	d.testB = fam.TestBatch(cfg.EvalLimit)
	d.global = fam.InitWeights(cfg.Seed)
	d.prevLoss = math.NaN()
	d.prevTimes = make([]float64, cfg.Workers)
	d.prevComm = make([]float64, cfg.Workers)
	d.lastRatio = make([]float64, cfg.Workers)
	d.infoTimes = make([]float64, cfg.Workers)
	d.infoComm = make([]float64, cfg.Workers)
	d.res = &Result{
		Config:           cfg,
		TimeToTargetAcc:  math.Inf(1),
		TimeToTargetLoss: math.Inf(1),
	}
	if cfg.StreamMetrics {
		d.stream = newStreamStats()
		d.res.Stream = d.stream
	}
	return d, nil
}

// Config returns the normalized configuration the driver runs.
func (d *Driver) Config() Config { return d.cfg }

// Drive evaluates the starting model — round 0, or the restored round — and
// executes rounds on exec until a target or budget stops the run. A round
// that delivers nothing is closed idle or run again under the same number,
// as exec decides; maxBarrenRounds consecutive re-runs are an error.
func (d *Driver) Drive(exec Executor) (*Result, error) {
	d.evaluate(d.res.Rounds, exec.Now())
	snap := d.borrow
	barren := 0
	for round := d.res.Rounds + 1; ; {
		workers, suspect, behind, err := exec.Workers(round)
		if err != nil {
			return nil, err
		}
		info := d.info(round - behind)
		var assignments []Assignment
		if len(workers) > 0 {
			if assignments, err = d.strategy.Assign(info, workers); err != nil {
				return nil, err
			}
		}
		delivered, lost, seconds, err := exec.Run(round, assignments)
		if err != nil {
			return nil, err
		}
		// Aggregating comes before the idle decision: with nothing
		// delivered the model stays as it is, and the lost assignments'
		// bandits still learn their ratio earned nothing.
		if d.global, err = d.strategy.Aggregate(info, delivered, lost); err != nil {
			return nil, err
		}
		if len(delivered) == 0 {
			idle, ok := exec.Idle(seconds, info.MeanRoundTime)
			if !ok {
				if barren++; barren >= maxBarrenRounds {
					return nil, fmt.Errorf("core: %d consecutive rounds with no results", barren)
				}
				continue
			}
			seconds = idle
		}
		barren = 0
		d.record(round, info, delivered, len(lost), suspect, seconds)
		var eval *Point
		if round%d.cfg.EvalEvery == 0 {
			p := d.evaluate(round, exec.Now())
			eval = &p
		}
		if err := exec.Closed(round, eval, snap); err != nil {
			return nil, err
		}
		if eval != nil && d.reached(*eval) || d.spent(round, exec.Now()) {
			break
		}
		round++
	}
	d.seal(exec.Now())
	d.res.State = d.export()
	return d.res, nil
}

// meanRoundTime is the running mean of the closed rounds' durations.
func (d *Driver) meanRoundTime() float64 {
	if d.roundCnt == 0 {
		return 0
	}
	return d.roundSum / float64(d.roundCnt)
}

// info snapshots the server view for the strategy under the given dispatch
// number. PrevTimes and PrevCommTimes are driver-owned buffers — strategies
// may read them only until the next info call — so no per-round copies are
// allocated.
func (d *Driver) info(round int) *RoundInfo {
	copy(d.infoTimes, d.prevTimes)
	copy(d.infoComm, d.prevComm)
	return &RoundInfo{
		Round:         round,
		Global:        d.global,
		PrevLoss:      d.prevLoss,
		PrevTimes:     d.infoTimes,
		PrevCommTimes: d.infoComm,
		MeanRoundTime: d.meanRoundTime(),
	}
}

// record folds one closed round into the ledger and the per-round statistics
// — appended RoundStats by default, the streaming aggregate under
// StreamMetrics. suspect counts workers skipped up front this round.
func (d *Driver) record(round int, info *RoundInfo, outs []Output, lost, suspect int, seconds float64) {
	d.roundSum += seconds
	d.roundCnt++
	d.res.Rounds = round

	var comp, comm float64
	var down, up int64
	for i := range outs {
		o := &outs[i]
		comp += o.CompTime
		comm += o.CommTime
		down += o.DownBytes
		up += o.UpBytes
		d.prevTimes[o.Worker] = o.Total
		d.prevComm[o.Worker] = o.CommTime
		d.lastRatio[o.Worker] = o.Ratio
	}
	if len(outs) > 0 {
		comp /= float64(len(outs))
		comm /= float64(len(outs))
		d.prevLoss = meanTrainLoss(outs)
	}
	if d.stream != nil {
		d.stream.observeRound(seconds, comp, comm, down, up, len(outs), lost, suspect)
		return
	}
	stat := RoundStat{
		Round:           round,
		Time:            seconds,
		CompTime:        comp,
		CommTime:        comm,
		DownBytes:       down,
		UpBytes:         up,
		DecisionSeconds: info.DecisionSeconds,
		PruneSeconds:    info.PruneSeconds,
		Participants:    len(outs),
		Dropped:         lost,
		Suspect:         suspect,
		Ratios:          make([]float64, d.cfg.Workers),
	}
	for i := range outs {
		stat.Ratios[outs[i].Worker] = outs[i].Ratio
	}
	d.res.Stats = append(d.res.Stats, stat)
}

// evaluate measures the global model on the test batch and records a Point
// (or the streaming aggregate under StreamMetrics).
func (d *Driver) evaluate(round int, now float64) Point {
	nn.SetWeights(d.evalNet, d.global)
	loss, acc := EvalChunked(d.evalNet, d.testB, 64)
	p := Point{Round: round, Time: now, Loss: loss, Acc: acc}
	if d.stream != nil {
		d.stream.observeEval(round, now, loss, acc)
	} else {
		d.res.Points = append(d.res.Points, p)
	}
	// Track first-crossing times even when the run continues for other
	// reasons (e.g. time-budget sweeps reading the trajectory).
	if d.cfg.TargetAccuracy > 0 && acc >= d.cfg.TargetAccuracy && math.IsInf(d.res.TimeToTargetAcc, 1) {
		d.res.TimeToTargetAcc = now
	}
	if d.cfg.TargetLoss > 0 && loss <= d.cfg.TargetLoss && math.IsInf(d.res.TimeToTargetLoss, 1) {
		d.res.TimeToTargetLoss = now
	}
	return p
}

// reached reports whether an evaluation meets a configured quality target.
func (d *Driver) reached(p Point) bool {
	return d.cfg.TargetAccuracy > 0 && p.Acc >= d.cfg.TargetAccuracy ||
		d.cfg.TargetLoss > 0 && p.Loss <= d.cfg.TargetLoss
}

// spent reports whether the round or time caps are exhausted.
func (d *Driver) spent(round int, now float64) bool {
	return d.cfg.Rounds > 0 && round >= d.cfg.Rounds ||
		d.cfg.TimeBudget > 0 && now >= d.cfg.TimeBudget
}

// seal fills the Result's closing fields once the rounds are over.
func (d *Driver) seal(now float64) {
	if len(d.res.Points) > 0 {
		last := d.res.Points[len(d.res.Points)-1]
		d.res.FinalAcc, d.res.FinalLoss = last.Acc, last.Loss
	} else if d.stream != nil && d.stream.Evals > 0 {
		d.res.FinalAcc, d.res.FinalLoss = d.stream.LastAcc, d.stream.LastLoss
	}
	d.res.Time = now
}

// EvalChunked evaluates a batch in chunks to bound activation memory,
// returning the mean loss and the accuracy: correct predictions over
// predictions made, which is one per example for the classifiers and one per
// target token for a language model.
func EvalChunked(net nn.Network, b *nn.Batch, chunk int) (loss, acc float64) {
	n := b.Size()
	if n == 0 {
		return 0, 0
	}
	var lossSum float64
	var correct int
	for start := 0; start < n; start += chunk {
		end := min(start+chunk, n)
		l, c := net.Eval(sliceBatch(b, start, end))
		lossSum += l * float64(end-start)
		correct += c
	}
	predictions := n
	if b.X == nil {
		predictions = 0
		for _, seq := range b.Seq {
			predictions += len(seq) - 1
		}
	}
	return lossSum / float64(n), float64(correct) / float64(predictions)
}

// sliceBatch returns the [start,end) sub-batch.
func sliceBatch(b *nn.Batch, start, end int) *nn.Batch {
	if b.X != nil {
		per := b.X.Size() / b.X.Shape[0]
		shape := append([]int{end - start}, b.X.Shape[1:]...)
		return &nn.Batch{
			X:      tensor.FromSlice(b.X.Data[start*per:end*per], shape...),
			Labels: b.Labels[start:end],
		}
	}
	return &nn.Batch{Seq: b.Seq[start:end]}
}
