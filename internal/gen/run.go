package gen

import (
	"timedice/internal/check"
	"timedice/internal/core"
	"timedice/internal/engine"
	"timedice/internal/telemetry"
)

// Run simulates the scenario with a full check.Suite attached as the
// telemetry sink and returns the finished suite. The suite holds the oracle
// verdict (Violations), the event-stream digest, and observed response
// statistics; the engine's cheap counters are cross-checked against the
// suite's own event-derived tallies before returning.
func Run(sc Scenario) (*check.Suite, error) {
	suite, _, err := run(sc, nil)
	return suite, err
}

// RunStats carries a recorded run's aggregates: the engine's cheap counters
// (for post-mortem bundles) and the TimeDice policy's counters, verdict-cache
// tallies included (for live exposition). Policy is zero under non-TimeDice
// policies.
type RunStats struct {
	Counters engine.Counters
	Policy   core.Stats
}

// RunRecorded is Run with an additional telemetry sink — canonically an
// obs.Recorder flight recorder — attached alongside the oracle suite, and
// the run's aggregate statistics returned. The extra sink observes the
// identical event stream the suite digests, so a recorder window covering
// the whole run replays to suite.Digest().
func RunRecorded(sc Scenario, extra telemetry.Sink) (*check.Suite, RunStats, error) {
	suite, sys, err := run(sc, extra)
	if err != nil {
		return nil, RunStats{}, err
	}
	return suite, runStats(sys), nil
}

// runStats gathers a finished run's RunStats.
func runStats(sys *engine.System) RunStats {
	st := RunStats{Counters: sys.Counters}
	if cp, ok := sys.Policy.(interface{ Stats() core.Stats }); ok {
		st.Policy = cp.Stats()
	}
	return st
}

// run simulates sc under a fresh check.Suite (plus extra, when non-nil).
// Each tweak is applied to the built system before it runs; the differential
// tests use one to swap in a reference policy.
func run(sc Scenario, extra telemetry.Sink, tweaks ...func(*engine.System)) (*check.Suite, *engine.System, error) {
	suite, err := check.NewSuite(sc.Spec, sc.Policy)
	if err != nil {
		return nil, nil, err
	}
	sys, err := Build(sc)
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
