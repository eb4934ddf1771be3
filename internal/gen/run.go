package gen

import (
	"timedice/internal/check"
	"timedice/internal/core"
	"timedice/internal/engine"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/telemetry"
)

// Run simulates the scenario with a full check.Suite attached as the
// telemetry sink and returns the finished suite. The suite holds the oracle
// verdict (Violations), the event-stream digest, and observed response
// statistics; the engine's cheap counters are cross-checked against the
// suite's own event-derived tallies before returning.
func Run(sc Scenario) (*check.Suite, error) {
	suite, _, err := run(sc, policies.Options{Quantum: sc.Quantum}, nil)
	return suite, err
}

// RunStats carries a recorded run's aggregates: the engine's cheap counters
// (for post-mortem bundles) and the TimeDice verdict-cache tallies (for live
// exposition). CacheHits/CacheMisses are zero under non-caching policies.
type RunStats struct {
	Counters               engine.Counters
	CacheHits, CacheMisses int64
}

// RunRecorded is Run with an additional telemetry sink — canonically an
// obs.Recorder flight recorder — attached alongside the oracle suite, and
// the run's aggregate statistics returned. The extra sink observes the
// identical event stream the suite digests, so a recorder window covering
// the whole run replays to suite.Digest().
func RunRecorded(sc Scenario, extra telemetry.Sink) (*check.Suite, RunStats, error) {
	suite, sys, err := run(sc, policies.Options{Quantum: sc.Quantum}, extra)
	if err != nil {
		return nil, RunStats{}, err
	}
	st := RunStats{Counters: sys.Counters}
	if cp, ok := sys.Policy.(interface{ Stats() core.Stats }); ok {
		cs := cp.Stats()
		st.CacheHits, st.CacheMisses = cs.CacheHits, cs.CacheMisses
	}
	return suite, st, nil
}

// RunScanRecorded is RunScan with the run's aggregate statistics returned,
// the scan-side twin of RunRecorded. The differential suite uses the pair to
// pin the engine's deterministic counters equal across stepping paths (except
// the two that are path-dependent by design, ArenaBytesTouched and
// InterferenceTerms).
func RunScanRecorded(sc Scenario, extra telemetry.Sink) (*check.Suite, RunStats, error) {
	suite, sys, err := run(sc, policies.Options{Quantum: sc.Quantum}, extra, scanStepping)
	if err != nil {
		return nil, RunStats{}, err
	}
	st := RunStats{Counters: sys.Counters}
	if cp, ok := sys.Policy.(interface{ Stats() core.Stats }); ok {
		cs := cp.Stats()
		st.CacheHits, st.CacheMisses = cs.CacheHits, cs.CacheMisses
	}
	return suite, st, nil
}

// RunUncached is Run with the TimeDice schedulability-verdict cache disabled.
// Because the cache is exact, the returned suite must be indistinguishable
// from Run's — same digest, same violations, same statistics — which the
// differential tests pin over the simfuzz scenario corpus.
func RunUncached(sc Scenario) (*check.Suite, error) {
	suite, _, err := run(sc, policies.Options{Quantum: sc.Quantum, UncachedTimeDice: true}, nil)
	return suite, err
}

// RunScan is Run with the engine's reference O(P) scan stepping
// (engine.System.ScanStepping) instead of the indexed event queue. The two
// stepping modes are required to be observationally identical — same digest,
// same violations — which the differential tests pin over the scenario
// corpus.
func RunScan(sc Scenario) (*check.Suite, error) {
	suite, _, err := run(sc, policies.Options{Quantum: sc.Quantum}, nil, scanStepping)
	return suite, err
}

// scanStepping flips the built system to the reference stepping path.
func scanStepping(sys *engine.System) { sys.ScanStepping = true }

func run(sc Scenario, opts policies.Options, extra telemetry.Sink, tweaks ...func(*engine.System)) (*check.Suite, *engine.System, error) {
	suite, err := check.NewSuite(sc.Spec, sc.Policy)
	if err != nil {
		return nil, nil, err
	}
	built, err := sc.Spec.Build()
	if err != nil {
		return nil, nil, err
	}
	pol, err := policies.Build(sc.Policy, built.Partitions, opts)
	if err != nil {
		return nil, nil, err
	}
	sys, err := engine.New(built.Partitions, pol, rng.New(sc.Seed))
	if err != nil {
		return nil, nil, err
	}
	for _, tw := range tweaks {
		tw(sys)
	}
	if extra != nil {
		sys.AttachTelemetry(telemetry.Multi{suite, extra})
	} else {
		sys.AttachTelemetry(suite)
	}
	sys.RunFor(sc.Horizon)
	sys.FlushTelemetry()
	suite.Finish(sys.Now())
	suite.CheckCounters(&sys.Counters, sc.Horizon)
	return suite, sys, nil
}

// Fails reports whether the scenario produces at least one oracle violation
// (setup errors count as failures: a scenario that stops decoding or building
// mid-shrink is rejected by returning false from the shrinker's predicate
// instead, so this is only used on scenarios that ran once already).
func Fails(sc Scenario) bool {
	suite, err := Run(sc)
	if err != nil {
		return false
	}
	_, n := suite.Violations()
	return n > 0
}
