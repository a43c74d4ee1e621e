package bandit

import "fmt"

// Policy kind tags used in exported state. The strings are part of the
// checkpoint format (internal/transport/checkpoint) — never renumber or
// rename them.
const (
	StateEUCB     = "eucb"
	StateDiscrete = "discrete"
	StateGreedy   = "greedy"
	StateFixed    = "fixed"
)

// PullRecord is one historical arm pull in exported form.
type PullRecord struct {
	// Round is the policy-local round the pull happened in.
	Round int
	// Ratio is the pulled arm; Reward the observed Eq. 8 reward.
	Ratio, Reward float64
}

// State is a policy's complete learning state in serialisable form: what a
// parameter server must persist so a restarted process resumes ratio
// selection where the crashed one stopped. Exactly the fields matching Kind
// are meaningful; the rest stay zero. A pull that is pending at Export (a
// Select not yet observed) is left out: it is in-flight work, which a
// recovery deliberately replays. Synchronous rounds export at a round
// boundary and have none; Alg. 2 closes a round with assignments in flight.
type State struct {
	// Kind tags the policy type ("eucb", "discrete", "greedy", "fixed").
	Kind string
	// Round is how many Observe calls have completed.
	Round int

	// Regions and Pulls carry an E-UCB agent's partition and discounted
	// reward history.
	Regions []Region
	Pulls   []PullRecord

	// Arms, Counts and Sums carry the discrete policies' grids and
	// per-arm statistics.
	Arms   []float64
	Counts []int
	Sums   []float64

	// Eps is the ε-greedy exploration probability; Ratio the fixed policy's
	// constant.
	Eps   float64
	Ratio float64
}

// Persistent is implemented by policies whose learning state can be
// exported for checkpointing and injected back after a restart.
type Persistent interface {
	// Export snapshots the policy state as of the last Observe.
	Export() *State
	// Restore replaces the policy's state with a previously exported one.
	Restore(*State) error
}

// Export implements Persistent.
func (a *Agent) Export() *State {
	s := &State{
		Kind:    StateEUCB,
		Round:   a.round,
		Regions: append([]Region(nil), a.regions...),
		Pulls:   make([]PullRecord, len(a.history)),
	}
	for i, p := range a.history {
		s.Pulls[i] = PullRecord{Round: p.round, Ratio: p.ratio, Reward: p.reward}
	}
	return s
}

// Restore implements Persistent. The agent keeps its own configuration and
// RNG; only the learned partition, history and round counter are injected.
func (a *Agent) Restore(s *State) error {
	if s == nil || s.Kind != StateEUCB {
		return fmt.Errorf("bandit: restoring %v state into an E-UCB agent", stateKind(s))
	}
	if s.Round < 0 {
		return fmt.Errorf("bandit: negative round %d in E-UCB state", s.Round)
	}
	if len(s.Regions) == 0 {
		return fmt.Errorf("bandit: E-UCB state without regions")
	}
	for _, r := range s.Regions {
		if r.Hi <= r.Lo || r.Lo < 0 || r.Hi > a.cfg.MaxRatio+1e-9 {
			return fmt.Errorf("bandit: region [%v,%v) outside [0,%v)", r.Lo, r.Hi, a.cfg.MaxRatio)
		}
	}
	a.round = s.Round
	a.selected = false
	a.regions = append(a.regions[:0:0], s.Regions...)
	a.history = make([]pull, len(s.Pulls))
	for i, p := range s.Pulls {
		if p.Round < 0 || p.Round > s.Round {
			return fmt.Errorf("bandit: pull round %d outside [0,%d]", p.Round, s.Round)
		}
		a.history[i] = pull{round: p.Round, ratio: p.Ratio, reward: p.Reward, region: a.leafOf(p.Ratio)}
	}
	return nil
}

// Export implements Persistent.
func (d *DiscreteUCB) Export() *State {
	return &State{
		Kind:   StateDiscrete,
		Round:  d.total,
		Arms:   append([]float64(nil), d.arms...),
		Counts: append([]int(nil), d.counts...),
		Sums:   append([]float64(nil), d.sums...),
	}
}

// Restore implements Persistent.
func (d *DiscreteUCB) Restore(s *State) error {
	if s == nil || s.Kind != StateDiscrete {
		return fmt.Errorf("bandit: restoring %v state into a discrete UCB policy", stateKind(s))
	}
	if err := checkArmStats(s, len(d.arms)); err != nil {
		return err
	}
	d.total = s.Round
	d.pending = -1
	copy(d.counts, s.Counts)
	copy(d.sums, s.Sums)
	return nil
}

// Export implements Persistent.
func (e *EpsilonGreedy) Export() *State {
	total := 0
	for _, c := range e.counts {
		total += c
	}
	return &State{
		Kind:   StateGreedy,
		Round:  total,
		Arms:   append([]float64(nil), e.arms...),
		Counts: append([]int(nil), e.counts...),
		Sums:   append([]float64(nil), e.sums...),
		Eps:    e.Eps,
	}
}

// Restore implements Persistent.
func (e *EpsilonGreedy) Restore(s *State) error {
	if s == nil || s.Kind != StateGreedy {
		return fmt.Errorf("bandit: restoring %v state into an epsilon-greedy policy", stateKind(s))
	}
	if err := checkArmStats(s, len(e.arms)); err != nil {
		return err
	}
	e.pending = -1
	copy(e.counts, s.Counts)
	copy(e.sums, s.Sums)
	return nil
}

// Export implements Persistent. A fixed policy learns nothing; the ratio is
// exported so a restore can verify the configuration did not drift.
func (f Fixed) Export() *State {
	return &State{Kind: StateFixed, Ratio: f.Ratio}
}

// Restore implements Persistent (validation only — the ratio comes from the
// configuration, not the checkpoint).
func (f Fixed) Restore(s *State) error {
	if s == nil || s.Kind != StateFixed {
		return fmt.Errorf("bandit: restoring %v state into a fixed policy", stateKind(s))
	}
	return nil
}

// checkArmStats validates a discrete-family state against the live policy's
// arm count.
func checkArmStats(s *State, arms int) error {
	if len(s.Counts) != arms || len(s.Sums) != arms {
		return fmt.Errorf("bandit: state has %d counts/%d sums for %d arms",
			len(s.Counts), len(s.Sums), arms)
	}
	if s.Round < 0 {
		return fmt.Errorf("bandit: negative round %d", s.Round)
	}
	for _, c := range s.Counts {
		if c < 0 {
			return fmt.Errorf("bandit: negative pull count %d", c)
		}
	}
	return nil
}

// stateKind names a state's kind for error messages, tolerating nil.
func stateKind(s *State) string {
	if s == nil {
		return "nil"
	}
	return s.Kind
}
