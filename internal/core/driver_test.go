package core

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fedmp/internal/data"
	"fedmp/internal/nn"
	"fedmp/internal/tensor"
	"fedmp/internal/zoo"
)

// fakeExec is a scripted Executor: every round it offers the same workers,
// echoes each assignment's weights back as the trained model for the workers
// listed in deliver(round, attempt) and loses the rest, and answers Idle and
// Closed from fields — so the Driver's own decisions are what a test sees.
type fakeExec struct {
	workers []int
	suspect int
	// behind is the dispatch-numbering lag Workers reports.
	behind int
	// deliver picks who answers the attempt-th run of round (nil: all).
	deliver func(round, attempt int) []int
	// arrive, when set, rewrites what the round delivers: it is handed the
	// round's fresh outputs and returns the ones to report, in the order to
	// report them — holding some back for a later round is how a test plays
	// Alg. 2's stale arrivals.
	arrive func(round int, fresh []Output) []Output
	// idle is Idle's answer; retry, when set, overrides it with "run again".
	idle  float64
	retry bool
	// closeErr fails Closed for that round.
	closeErr map[int]error

	now      float64
	runs     []int // round number of every Run call, in order
	attempts map[int]int
	closed   []int
	snaps    []*State
}

func (f *fakeExec) Workers(int) ([]int, int, int, error) { return f.workers, f.suspect, f.behind, nil }

func (f *fakeExec) Run(round int, assignments []Assignment) ([]Output, []Assignment, float64, error) {
	if f.attempts == nil {
		f.attempts = map[int]int{}
	}
	attempt := f.attempts[round]
	f.attempts[round]++
	f.runs = append(f.runs, round)
	answers := map[int]bool{}
	if f.deliver != nil {
		for _, w := range f.deliver(round, attempt) {
			answers[w] = true
		}
	}
	var outs []Output
	var lost []Assignment
	for _, a := range assignments {
		if f.deliver != nil && !answers[a.Worker] {
			lost = append(lost, a)
			continue
		}
		outs = append(outs, Output{Assignment: a, NewWeights: nn.CloneWeights(a.Weights), TrainLoss: 1, CompTime: 1, Total: 2})
	}
	if f.arrive != nil {
		outs = f.arrive(round, outs)
	}
	seconds := 0.0
	if len(outs) > 0 {
		seconds = 2
	}
	f.now += seconds
	return outs, lost, seconds, nil
}

func (f *fakeExec) Idle(seconds, mean float64) (float64, bool) {
	if f.retry {
		return 0, false
	}
	f.now += f.idle
	return f.idle, true
}

func (f *fakeExec) Now() float64 { return f.now }

func (f *fakeExec) Closed(round int, _ *Point, snap func() *State) error {
	if err := f.closeErr[round]; err != nil {
		return err
	}
	f.closed = append(f.closed, round)
	s := *snap() // the view is borrowed: copy what the test reads later
	f.snaps = append(f.snaps, &s)
	return nil
}

// spyStrategy records what the Driver hands the strategy it wraps: the
// dispatch number and warm-up flag of every Assign, and the (worker, train
// loss) pairs of every Aggregate, in call order.
type spyStrategy struct {
	Strategy
	assignRounds []int
	warmups      []bool
	aggregated   [][][2]int
}

func (s *spyStrategy) Assign(info *RoundInfo, workers []int) ([]Assignment, error) {
	as, err := s.Strategy.Assign(info, workers)
	s.assignRounds = append(s.assignRounds, info.Round)
	s.warmups = append(s.warmups, len(as) > 0 && as[0].Warmup)
	return as, err
}

func (s *spyStrategy) Aggregate(info *RoundInfo, outs []Output, dropped []Assignment) ([]*tensor.Tensor, error) {
	var got [][2]int
	for _, o := range outs {
		got = append(got, [2]int{o.Worker, int(o.TrainLoss)})
	}
	s.aggregated = append(s.aggregated, got)
	return s.Strategy.Aggregate(info, outs, dropped)
}

// spyOn wraps the driver's strategy in a spyStrategy.
func spyOn(d *Driver) *spyStrategy {
	spy := &spyStrategy{Strategy: d.strategy}
	d.strategy = spy
	return spy
}

func fakeDriver(t *testing.T, rounds int) *Driver {
	t.Helper()
	return fakeDriverFor(t, StrategySynFL, rounds)
}

func fakeDriverFor(t *testing.T, strategy StrategyID, rounds int) *Driver {
	t.Helper()
	cfg := quickCfg(strategy, rounds)
	cfg.Workers = 3
	d, err := NewDriver(tinyFamily(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDriverRetriesBarrenRound pins the parameter server's empty-round
// policy: a round nobody answered runs again under the same number, and the
// retried round is recorded once. Under FedMP the lost assignments' bandits
// must have been settled in between, and UP-FL's shared agent must hold its
// pull (an E-UCB agent panics on a second Select without an Observe).
func TestDriverRetriesBarrenRound(t *testing.T) {
	for _, strategy := range []StrategyID{StrategySynFL, StrategyFedMP, StrategyUPFL} {
		f := &fakeExec{workers: []int{0, 1, 2}, retry: true, deliver: func(round, attempt int) []int {
			if round == 2 && attempt < 2 {
				return nil
			}
			return []int{0, 1, 2}
		}}
		res, err := fakeDriverFor(t, strategy, 3).Drive(f)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if want := []int{1, 2, 2, 2, 3}; !slices.Equal(f.runs, want) {
			t.Errorf("%s: rounds run %v, want %v", strategy, f.runs, want)
		}
		if want := []int{1, 2, 3}; !slices.Equal(f.closed, want) {
			t.Errorf("%s: rounds closed %v, want %v", strategy, f.closed, want)
		}
		if res.Rounds != 3 || len(res.Stats) != 3 {
			t.Errorf("%s: result has %d rounds, %d stats; want 3 and 3", strategy, res.Rounds, len(res.Stats))
		}
	}
}

// TestDriverGivesUpOnBarrenRounds pins the liveness backstop: maxBarrenRounds
// consecutive empty attempts end the run with an error.
func TestDriverGivesUpOnBarrenRounds(t *testing.T) {
	f := &fakeExec{workers: []int{0, 1, 2}, retry: true, deliver: func(round, _ int) []int {
		if round == 2 {
			return nil
		}
		return []int{0, 1, 2}
	}}
	res, err := fakeDriver(t, 3).Drive(f)
	if err == nil || !strings.Contains(err.Error(), "consecutive rounds with no results") {
		t.Fatalf("Drive returned (%v, %v), want the barren-rounds error", res, err)
	}
	if got := f.attempts[2]; got != maxBarrenRounds {
		t.Errorf("round 2 ran %d times, want %d", got, maxBarrenRounds)
	}
	if want := []int{1}; !slices.Equal(f.closed, want) {
		t.Errorf("rounds closed %v, want %v", f.closed, want)
	}
}

// TestDriverCountsIdleRound pins the simulator's empty-round policy: the
// round closes with the idle duration the executor names, is recorded with
// no participants, and the next round number follows.
func TestDriverCountsIdleRound(t *testing.T) {
	f := &fakeExec{workers: []int{0, 1, 2}, idle: 7, deliver: func(round, _ int) []int {
		if round == 2 {
			return nil
		}
		return []int{0, 1, 2}
	}}
	res, err := fakeDriver(t, 3).Drive(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 3}; !slices.Equal(f.runs, want) {
		t.Errorf("rounds run %v, want %v", f.runs, want)
	}
	st := res.Stats[1]
	if st.Round != 2 || st.Time != 7 || st.Participants != 0 || st.Dropped != 3 {
		t.Errorf("idle round recorded as %+v; want round 2, 7s, 0 participants, 3 dropped", st)
	}
	if res.Time != 2+7+2 {
		t.Errorf("run took %v, want 11", res.Time)
	}
	if got := f.snaps[2].RoundSum; got != 11 {
		t.Errorf("round-time accumulator %v after three rounds, want 11", got)
	}
}

// TestDriverPersistErrorIsFatal pins the durability contract: when the
// executor cannot close a round the run ends there, with no result.
func TestDriverPersistErrorIsFatal(t *testing.T) {
	disk := errors.New("disk full")
	f := &fakeExec{workers: []int{0, 1, 2}, closeErr: map[int]error{2: disk}}
	res, err := fakeDriver(t, 3).Drive(f)
	if !errors.Is(err, disk) || res != nil {
		t.Fatalf("Drive returned (%v, %v), want (nil, disk full)", res, err)
	}
	if want := []int{1}; !slices.Equal(f.closed, want) {
		t.Errorf("rounds closed %v, want %v", f.closed, want)
	}
	if want := []int{1, 2}; !slices.Equal(f.runs, want) {
		t.Errorf("rounds run %v, want %v (nothing may run after a failed close)", f.runs, want)
	}
}

// TestDriverRecordsShortRound pins the partial-participation bookkeeping: a
// round that closes on a quorum records who was lost and who was skipped up
// front, and only the deliverers' times and ratios enter the ledger.
func TestDriverRecordsShortRound(t *testing.T) {
	f := &fakeExec{workers: []int{0, 2}, suspect: 1, deliver: func(int, int) []int { return []int{2} }}
	res, err := fakeDriver(t, 1).Drive(f)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats[0]
	if st.Participants != 1 || st.Dropped != 1 || st.Suspect != 1 {
		t.Errorf("short round recorded as %+v; want 1 participant, 1 dropped, 1 suspect", st)
	}
	if got := res.State.PrevTimes; got[0] != 0 || got[1] != 0 || got[2] != 2 {
		t.Errorf("per-worker times %v, want only worker 2's", got)
	}
}

// TestDriverResumeReevaluates pins the resume contract on the driver itself:
// restored at round K it evaluates at K, then runs K+1, and the state it
// exports at the end is a copy.
func TestDriverResumeReevaluates(t *testing.T) {
	first, err := fakeDriver(t, 2).Drive(&fakeExec{workers: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	d := fakeDriver(t, 4)
	if err := d.Restore(first.State); err != nil {
		t.Fatal(err)
	}
	f := &fakeExec{workers: []int{0, 1, 2}, now: first.State.RoundSum}
	res, err := d.Drive(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 4}; !slices.Equal(f.runs, want) {
		t.Errorf("resumed rounds %v, want %v", f.runs, want)
	}
	base, last := res.Points[0], first.Points[len(first.Points)-1]
	if base.Round != 2 || base.Loss != last.Loss || base.Acc != last.Acc {
		t.Errorf("resumed baseline %+v, want the round-2 evaluation %+v", base, last)
	}
	if res.State.Round != 4 || math.Float64bits(res.State.RoundSum) != math.Float64bits(8) {
		t.Errorf("final state at round %d, round sum %v; want 4 and 8", res.State.Round, res.State.RoundSum)
	}
	if &res.State.Global[0].Data[0] == &d.global[0].Data[0] {
		t.Error("Result.State aliases the driver's live model")
	}
}

// TestDriverAggregatesInExecutorOrder pins the ordering contract Alg. 2
// leans on: results that belong to earlier dispatches, reported out of
// assignment order, reach Aggregate exactly as the executor gave them. The
// outputs carry their dispatch round as the train loss.
func TestDriverAggregatesInExecutorOrder(t *testing.T) {
	var held []Output
	f := &fakeExec{workers: []int{0, 1, 2}, behind: 1, arrive: func(round int, fresh []Output) []Output {
		for i := range fresh {
			fresh[i].TrainLoss = float64(round)
		}
		switch round {
		case 1: // worker 2 reports; 0 and 1 stay in flight
			held = append(held, fresh[0], fresh[1])
			return fresh[2:]
		case 2: // round 1's worker 1, then this round's 2 and 0
			held = append(held, fresh[1])
			return []Output{held[1], fresh[2], fresh[0]}
		default: // the stragglers, oldest last
			return []Output{held[2], held[0]}
		}
	}}
	d := fakeDriver(t, 3)
	spy := spyOn(d)
	res, err := d.Drive(f)
	if err != nil {
		t.Fatal(err)
	}
	want := [][][2]int{{{2, 1}}, {{1, 1}, {2, 2}, {0, 2}}, {{1, 2}, {0, 1}}}
	if !reflect.DeepEqual(spy.aggregated, want) {
		t.Errorf("Aggregate saw (worker, dispatch) %v, want %v", spy.aggregated, want)
	}
	if got := []int{res.Stats[0].Participants, res.Stats[1].Participants, res.Stats[2].Participants}; !slices.Equal(got, []int{1, 3, 2}) {
		t.Errorf("participants per round %v, want [1 3 2]", got)
	}
}

// TestDriverNumbersDispatches pins the one datum Alg. 2 adds to the seam:
// Assign sees round k under lockstep numbering and k−1 when the executor
// dispatches one behind, so the warm-up boundary sits one round later there
// (the initial dispatch, number 0, is always warm-up).
func TestDriverNumbersDispatches(t *testing.T) {
	for _, strategy := range []StrategyID{StrategyFedMP, StrategyUPFL} {
		for _, tc := range []struct {
			behind  int
			rounds  []int
			warmups []bool
		}{
			{0, []int{1, 2, 3, 4}, []bool{true, true, false, false}},
			{1, []int{0, 1, 2, 3}, []bool{true, true, true, false}},
		} {
			cfg := quickCfg(strategy, 4)
			cfg.Workers, cfg.WarmupRounds = 3, 2
			d, err := NewDriver(tinyFamily(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			spy := spyOn(d)
			if _, err := d.Drive(&fakeExec{workers: []int{0, 1, 2}, behind: tc.behind}); err != nil {
				t.Fatalf("%s behind %d: %v", strategy, tc.behind, err)
			}
			if !slices.Equal(spy.assignRounds, tc.rounds) || !slices.Equal(spy.warmups, tc.warmups) {
				t.Errorf("%s behind %d: Assign saw rounds %v (warm-up %v), want %v (%v)",
					strategy, tc.behind, spy.assignRounds, spy.warmups, tc.rounds, tc.warmups)
			}
		}
	}
}

// TestDriverRecordsLostRoundsWithoutRetry pins what Alg. 2 inherits from the
// idle path: rounds that surface nothing but losses are each recorded with
// no participants under their own number, however many follow one another —
// the barren-round backstop counts re-runs, not closed rounds.
func TestDriverRecordsLostRoundsWithoutRetry(t *testing.T) {
	rounds := maxBarrenRounds + 3
	f := &fakeExec{workers: []int{0, 1, 2}, behind: 1, idle: 3, deliver: func(round, _ int) []int {
		if round > 1 && round < rounds {
			return nil
		}
		return []int{0, 1, 2}
	}}
	res, err := fakeDriverFor(t, StrategyFedMP, rounds).Drive(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != rounds || len(f.runs) != rounds {
		t.Fatalf("closed %d rounds in %d runs, want %d in %d", res.Rounds, len(f.runs), rounds, rounds)
	}
	for _, st := range res.Stats[1 : rounds-1] {
		if st.Participants != 0 || st.Dropped != 3 || st.Time != 3 {
			t.Errorf("lost round recorded as %+v; want 0 participants, 3 dropped, 3s", st)
		}
	}
}

// allCorrect is a network whose Eval claims every prediction right.
type allCorrect struct{ nn.Network }

func (allCorrect) Eval(b *nn.Batch) (float64, int) {
	if b.X != nil {
		return 0, b.Size()
	}
	n := 0
	for _, seq := range b.Seq {
		n += len(seq) - 1
	}
	return 0, n
}

// TestEvalChunkedLMAccuracyIsPerToken is the reproducer of accuracy divided
// by sequences where the language model counts correct tokens: an untrained
// 80-word model read 0.164, SeqLen times its real 0.0137. Accuracy is per
// prediction: near chance at round 0 of an LM run, 1 and no more when every
// token is right, and on image batches what it always was.
func TestEvalChunkedLMAccuracyIsPerToken(t *testing.T) {
	lmCfg := zoo.DefaultLMConfig()
	lm := NewLMFamily(lmCfg, data.CorpusConfig{Vocab: lmCfg.Vocab, Branch: 6, TrainSize: 6000, TestSize: 2000, Seed: 105})
	cfg := quickCfg(StrategyFedMP, 3)
	res, err := Run(lm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first := res.Points[0]; first.Round != 0 || first.Acc > 3/float64(lmCfg.Vocab) {
		t.Errorf("untrained %d-word model: accuracy %v at round %d, chance is %v", lmCfg.Vocab, first.Acc, first.Round, 1/float64(lmCfg.Vocab))
	}
	for _, p := range res.Points {
		if p.Acc < 0 || p.Acc > 1 {
			t.Errorf("round %d: accuracy %v", p.Round, p.Acc)
		}
	}
	// 70 sequences in chunks of 64: the tail chunk counts too.
	if _, acc := EvalChunked(allCorrect{}, lm.TestBatch(70), 64); acc != 1 {
		t.Errorf("every token right: accuracy %v, want 1", acc)
	}

	img := tinyFamily()
	if _, acc := EvalChunked(allCorrect{}, img.TestBatch(70), 64); acc != 1 {
		t.Errorf("every image right: accuracy %v, want 1", acc)
	}
	net, err := img.BuildNet(img.FullDesc(), 1)
	if err != nil {
		t.Fatal(err)
	}
	nn.SetWeights(net, img.InitWeights(1))
	b := img.TestBatch(100)
	_, correct := net.Eval(b)
	if _, acc := EvalChunked(net, b, 64); acc != float64(correct)/100 {
		t.Errorf("image accuracy %v, want %d correct of 100", acc, correct)
	}
}
