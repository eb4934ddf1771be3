package covert

import (
	"fmt"

	"timedice/internal/experiments/runner"
	"timedice/internal/ml"
	"timedice/internal/stats"
)

// Aggregate summarizes a channel metric over multiple independent runs.
type Aggregate struct {
	RTAccuracy       stats.Summary
	OnlineRTAccuracy stats.Summary
	Capacity         stats.Summary
	VecAccuracy      map[string]*stats.Summary
	Runs             int
}

// String renders the aggregate on one line.
func (a *Aggregate) String() string {
	return fmt.Sprintf("RT %.2f%%±%.2f cap %.3f±%.3f (n=%d)",
		100*a.RTAccuracy.Mean(), 100*a.RTAccuracy.Std(),
		a.Capacity.Mean(), a.Capacity.Std(), a.Runs)
}

// RunSeeds executes the experiment once per seed and aggregates the channel
// metrics, for statistically robust comparisons across policies. Each run is
// fully independent (noise, selection, and test bits all derive from the
// seed). The trials run sequentially on one reused Harness, so only the
// first trial pays for system construction.
func RunSeeds(cfg Config, seeds []uint64, vecTrainers ...ml.Trainer) (*Aggregate, error) {
	return runSeeds(cfg, seeds, 1, vecTrainers)
}

// RunSeedsParallel is RunSeeds with the independent runs spread across a
// bounded worker pool (each simulation is single-threaded and owns all of
// its state, so runs parallelize perfectly). workers ≤ 0 uses GOMAXPROCS.
// Each worker reuses its own Harness across the trials it claims. The
// aggregate is identical to RunSeeds' for the same seeds: a reused Harness
// replays a fresh run bit for bit, and results are folded in seed order.
func RunSeedsParallel(cfg Config, seeds []uint64, workers int, vecTrainers ...ml.Trainer) (*Aggregate, error) {
	return runSeeds(cfg, seeds, workers, vecTrainers)
}

func runSeeds(cfg Config, seeds []uint64, workers int, vecTrainers []ml.Trainer) (*Aggregate, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("covert: RunSeeds needs at least one seed")
	}
	results, err := runner.MapPooled(workers,
		func() (*Harness, error) { return NewHarness(cfg) },
		seeds,
		func(h *Harness, _ int, seed uint64) (*Result, error) {
			res, err := h.Run(seed, vecTrainers...)
			if err != nil {
				return nil, fmt.Errorf("seed %d: %w", seed, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	return aggregate(results), nil
}

// aggregate folds per-seed results in order.
func aggregate(results []*Result) *Aggregate {
	agg := &Aggregate{VecAccuracy: make(map[string]*stats.Summary)}
	for _, res := range results {
		agg.RTAccuracy.Add(res.RTAccuracy)
		agg.OnlineRTAccuracy.Add(res.OnlineRTAccuracy)
		agg.Capacity.Add(res.Capacity)
		for name, acc := range res.VecAccuracy {
			s, ok := agg.VecAccuracy[name]
			if !ok {
				s = &stats.Summary{}
				agg.VecAccuracy[name] = s
			}
			s.Add(acc)
		}
		agg.Runs++
	}
	return agg
}
