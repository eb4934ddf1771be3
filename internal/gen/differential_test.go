package gen

import (
	"testing"

	"timedice/internal/engine"
	"timedice/internal/experiments/runner"
	"timedice/internal/policies"
	"timedice/internal/rng"
)

// diffOptions narrows the sampling space to the TimeDice policies: the
// verdict cache only exists there, so NoRandom scenarios would compare a
// policy against itself.
func diffOptions() Options {
	opts := DefaultOptions()
	opts.Policies = []policies.Kind{policies.TimeDiceU, policies.TimeDiceW}
	return opts
}

// diffScenarios draws n scenarios from one seed for the differential tests.
func diffScenarios(n int, seed uint64) []Scenario {
	r := rng.New(seed)
	opts := diffOptions()
	scs := make([]Scenario, n)
	for i := range scs {
		scs[i] = Generate(r, opts)
	}
	return scs
}

// TestCachedUncachedDigestsMatch is the exactness proof for the incremental
// schedulability-verdict cache: over a large corpus of generated scenarios,
// running with the cache enabled and disabled must produce byte-identical
// event streams (compared by digest) and identical oracle verdicts. Any
// unsound cache hit — a stale verdict served
// past its validity horizon or across an invalidation — flips at least one
// scheduling decision and shows up as a digest mismatch.
func TestCachedUncachedDigestsMatch(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 150
	}
	scs := diffScenarios(n, 0xd1ce)
	_, err := runner.Map(0, scs, func(i int, sc Scenario) (struct{}, error) {
		cached, err := Run(sc)
		if err != nil {
			t.Errorf("scenario %d cached: %v", i, err)
			return struct{}{}, nil
		}
		uncached, err := RunUncached(sc)
		if err != nil {
			t.Errorf("scenario %d uncached: %v", i, err)
			return struct{}{}, nil
		}
		if cd, ud := cached.Digest(), uncached.Digest(); cd != ud {
			enc, _ := Encode(sc)
			t.Errorf("scenario %d: cached digest %#x != uncached %#x\nscenario: %s", i, cd, ud, enc)
		}
		_, cv := cached.Violations()
		_, uv := uncached.Violations()
		if cv != uv {
			t.Errorf("scenario %d: cached %d violations, uncached %d", i, cv, uv)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// comparableCounters projects an engine.Counters to the subset that must be
// bit-identical across stepping paths: everything except ArenaBytesTouched
// and InterferenceTerms, which are path-dependent by design (the scan path
// visits every partition and re-sums every interference term; the indexed
// path's kernel touches only what changed), and the wall-clock measurements,
// which are host observations. Notably FixpointIters IS compared: the
// divisionless kernel must replay the reference's iteration sequence exactly.
func comparableCounters(c engine.Counters) engine.Counters {
	c.ArenaBytesTouched = 0
	c.InterferenceTerms = 0
	c.PolicyTime = 0
	c.PolicySamples = 0
	c.PolicyLatency = nil
	return c
}

// TestIndexedScanDigestsMatch is the exactness proof for the indexed
// stepping path: over the generated corpus (all policies this time — the
// event queue is policy-independent), the default indexed stepping and the
// reference O(P) scan must produce byte-identical event streams, identical
// oracle verdicts, identical deterministic engine counters (modulo the
// deliberately path-dependent ones, see comparableCounters), and an
// identical core.Stats, field for field. Any divergence in delivery order,
// idle notification, or horizon selection flips at least one event and shows
// up as a digest mismatch; any drift in the decision kernel's iteration
// replay shows up as a FixpointIters mismatch, and any drift in Pick's
// bookkeeping (tests, reuses, candidates, idle and inversion tallies, cache
// hits and misses) as a core.Stats mismatch, even when the schedule happens
// to agree.
func TestIndexedScanDigestsMatch(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 150
	}
	r := rng.New(0x5ca1ab1e)
	opts := DefaultOptions()
	scs := make([]Scenario, n)
	for i := range scs {
		scs[i] = Generate(r, opts)
	}
	_, err := runner.Map(0, scs, func(i int, sc Scenario) (struct{}, error) {
		indexed, ist, err := RunRecorded(sc, nil)
		if err != nil {
			t.Errorf("scenario %d indexed: %v", i, err)
			return struct{}{}, nil
		}
		scan, sst, err := RunScanRecorded(sc, nil)
		if err != nil {
			t.Errorf("scenario %d scan: %v", i, err)
			return struct{}{}, nil
		}
		if id, sd := indexed.Digest(), scan.Digest(); id != sd {
			enc, _ := Encode(sc)
			t.Errorf("scenario %d: indexed digest %#x != scan %#x\nscenario: %s", i, id, sd, enc)
		}
		_, iv := indexed.Violations()
		_, sv := scan.Violations()
		if iv != sv {
			t.Errorf("scenario %d: indexed %d violations, scan %d", i, iv, sv)
		}
		if ic, sc2 := comparableCounters(ist.Counters), comparableCounters(sst.Counters); ic != sc2 {
			t.Errorf("scenario %d: counter divergence across stepping paths:\nindexed: %+v\nscan:    %+v", i, ic, sc2)
		}
		if ist.Policy != sst.Policy {
			t.Errorf("scenario %d: policy-stats divergence across stepping paths:\nindexed: %+v\nscan:    %+v", i, ist.Policy, sst.Policy)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
