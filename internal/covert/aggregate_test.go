package covert

import (
	"testing"

	"timedice/internal/policies"
)

func TestRunSeedsAggregates(t *testing.T) {
	cfg := baseConfig()
	cfg.ProfileWindows = 100
	cfg.TestWindows = 200
	agg, err := RunSeeds(cfg, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 3 || agg.RTAccuracy.N() != 3 {
		t.Fatalf("aggregate counts: %+v", agg)
	}
	if agg.RTAccuracy.Mean() < 0.7 {
		t.Errorf("mean NoRandom accuracy %.3f", agg.RTAccuracy.Mean())
	}
	if agg.String() == "" {
		t.Error("empty string form")
	}
}

func TestRunSeedsSeparatesPoliciesRobustly(t *testing.T) {
	seeds := []uint64{11, 12, 13}
	mk := func(kind policies.Kind) *Aggregate {
		cfg := baseConfig()
		cfg.Policy = kind
		cfg.ProfileWindows = 100
		cfg.TestWindows = 200
		agg, err := RunSeeds(cfg, seeds)
		if err != nil {
			t.Fatal(err)
		}
		return agg
	}
	nr := mk(policies.NoRandom)
	td := mk(policies.TimeDiceW)
	// The gap must dwarf the cross-seed spread.
	gap := nr.RTAccuracy.Mean() - td.RTAccuracy.Mean()
	if gap < 3*(nr.RTAccuracy.Std()+td.RTAccuracy.Std())/2 && gap < 0.15 {
		t.Errorf("policy separation %.3f not robust (stds %.3f / %.3f)",
			gap, nr.RTAccuracy.Std(), td.RTAccuracy.Std())
	}
}

func TestRunSeedsEmpty(t *testing.T) {
	if _, err := RunSeeds(baseConfig(), nil); err == nil {
		t.Error("empty seed list accepted")
	}
	if _, err := RunSeedsParallel(baseConfig(), nil, 2); err == nil {
		t.Error("empty seed list accepted (parallel)")
	}
}

func TestRunSeedsParallelMatchesSequential(t *testing.T) {
	cfg := baseConfig()
	cfg.ProfileWindows = 80
	cfg.TestWindows = 160
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	seq, err := RunSeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSeedsParallel(cfg, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if seq.RTAccuracy.Mean() != par.RTAccuracy.Mean() || seq.RTAccuracy.Std() != par.RTAccuracy.Std() {
		t.Errorf("parallel aggregate diverged: %v vs %v", seq, par)
	}
	if seq.Capacity.Mean() != par.Capacity.Mean() {
		t.Errorf("capacity diverged: %v vs %v", seq.Capacity.Mean(), par.Capacity.Mean())
	}
	if par.Runs != len(seeds) {
		t.Errorf("runs = %d", par.Runs)
	}
}
