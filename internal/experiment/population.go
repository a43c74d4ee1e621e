package experiment

import (
	"fmt"

	"fedmp/internal/core"
	"fedmp/internal/metrics"
	"fedmp/internal/zoo"
)

// extra-population sweeps cohort size against population size in the
// simulator's population mode: FedMP trains a per-round sampled cohort out of a
// lazily derived device population with diurnal and regional-outage churn,
// streaming metrics so memory stays constant however large the population.
// It rides alongside the paper artefacts the same way the churn sweep does.
func init() {
	registry = append(registry,
		struct {
			id    string
			title string
			fn    runnerFn
		}{"extra-population", "Extra: sampled-cohort training across population scales", runPopulation},
	)
}

// populationSizes are the population scales swept by the artefact.
func (l *lab) populationSizes() []int {
	if l.opts.Quick {
		return []int{50, 500}
	}
	return []int{1_000, 10_000, 100_000}
}

// populationCohorts are the per-round cohort sizes.
func (l *lab) populationCohorts() []int {
	if l.opts.Quick {
		return []int{4}
	}
	return []int{10, 30}
}

// runPopulation regenerates the population sweep: one row per population
// size, one column group per cohort, reading the streaming aggregates the
// scale runs keep instead of full trajectories.
func runPopulation(l *lab) (*Report, error) {
	model := zoo.ModelCNN
	p := l.params(model)

	spec := func(pop, cohort int) runSpec {
		return runSpec{
			model:      model,
			strategy:   core.StrategyFedMP,
			rounds:     p.rounds,
			workers:    cohort,
			population: pop,
		}
	}
	var grid []runSpec
	for _, pop := range l.populationSizes() {
		for _, cohort := range l.populationCohorts() {
			grid = append(grid, spec(pop, cohort))
		}
	}
	if err := l.prefetch(grid); err != nil {
		return nil, err
	}

	acc := &metrics.Table{
		Title:   "Best accuracy vs population × cohort (sampled-cohort FedMP)",
		Columns: []string{"population"},
	}
	rt := &metrics.Table{
		Title:   "Round time p50 / p95 (virtual s) vs population × cohort",
		Columns: []string{"population"},
	}
	part := &metrics.Table{
		Title:   "Mean participants per round (churn-thinned cohort) vs population × cohort",
		Columns: []string{"population"},
	}
	for _, cohort := range l.populationCohorts() {
		label := fmt.Sprintf("cohort %d", cohort)
		acc.Columns = append(acc.Columns, label)
		rt.Columns = append(rt.Columns, label)
		part.Columns = append(part.Columns, label)
	}

	for _, pop := range l.populationSizes() {
		accRow := []string{fmt.Sprintf("%d", pop)}
		rtRow := []string{fmt.Sprintf("%d", pop)}
		partRow := []string{fmt.Sprintf("%d", pop)}
		for _, cohort := range l.populationCohorts() {
			res, err := l.simulateSpec(spec(pop, cohort))
			if err != nil {
				return nil, err
			}
			s := res.Stream
			if s == nil {
				return nil, fmt.Errorf("population run %d/%d kept no streaming aggregates", pop, cohort)
			}
			accRow = append(accRow, metrics.FormatPercent(s.BestAcc))
			rtRow = append(rtRow, fmt.Sprintf("%.1f / %.1f", s.RoundTimeP50.Value(), s.RoundTimeP95.Value()))
			partRow = append(partRow, fmt.Sprintf("%.2f", s.Participants.Mean))
		}
		acc.AddRow(accRow...)
		rt.AddRow(rtRow...)
		part.AddRow(partRow...)
	}
	return &Report{
		Tables: []*metrics.Table{acc, rt, part},
		Notes: []string{
			"each round samples a fresh cohort out of the population; devices derive lazily from (seed, id), so memory is O(cohort), not O(population)",
			"churn gates: devices follow a diurnal on/off trace (70% duty cycle) and 4 regions suffer correlated outages (p=0.1 per window)",
			"runs stream their metrics (online mean/variance + P² quantiles); accuracy is the best evaluation seen, not a trajectory reading",
		},
	}, nil
}
