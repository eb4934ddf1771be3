package main

// Fork-based exploration (-explore N): instead of judging each scenario by a
// single trajectory, the campaign re-runs it step-wise and, at states the
// oracles flag as interesting — an inversion window opening, a budget
// depletion, a completion that lands near its deadline — branches N futures
// off an engine.Fork with freshly seeded RNGs, measuring how many distinct
// outcomes the randomized policy can still reach from that state. A control
// fork (same state, same RNG position) runs alongside each branch point and
// must reproduce the parent's final event digest exactly; a mismatch means
// Fork failed the digest-identity contract and is reported as an oracle
// violation of the synthetic "fork-control" oracle.

import (
	"fmt"

	"timedice/internal/check"
	"timedice/internal/engine"
	"timedice/internal/gen"
	"timedice/internal/rng"
	"timedice/internal/telemetry"
	"timedice/internal/vtime"
)

// maxExplorePoints bounds the branch points per scenario so a pathologically
// eventful scenario cannot blow the campaign up quadratically.
const maxExplorePoints = 4

// exploreStats aggregates one scenario's (or the whole campaign's)
// exploration outcome.
type exploreStats struct {
	Points            int64 `json:"points"`            // branch points taken
	Futures           int64 `json:"futures"`           // seeded futures run
	Distinct          int64 `json:"distinct"`          // Σ distinct final digests per point
	ControlMismatches int64 `json:"controlMismatches"` // control forks that broke digest identity
}

func (a *exploreStats) add(b exploreStats) {
	a.Points += b.Points
	a.Futures += b.Futures
	a.Distinct += b.Distinct
	a.ControlMismatches += b.ControlMismatches
}

// interestSink folds the parent run's digest and raises the interesting flag
// on the oracle-adjacent events worth branching from.
type interestSink struct {
	*check.Digester
	interesting bool
	// deadlines[partition][task] is the task's effective relative deadline,
	// from the scenario spec (spec order == engine priority order).
	deadlines []map[string]vtime.Duration
}

func (s *interestSink) Event(e telemetry.Event) {
	s.Digester.Event(e)
	switch e.Kind {
	case telemetry.KindInversionOpen, telemetry.KindBudgetDeplete:
		s.interesting = true
	case telemetry.KindTaskComplete:
		// WCRT near-miss: the response time reached 90% of the deadline.
		if d := s.deadlines[e.Partition][e.Task]; d > 0 && e.Dur*10 >= d*9 {
			s.interesting = true
		}
	}
}

// runForkDigest runs a fork to the horizon, folding its events onto ds, and
// returns the final digest.
func runForkDigest(f *engine.System, ds *check.Digester, horizon vtime.Time) uint64 {
	f.AttachTelemetry(ds)
	f.Run(horizon)
	f.FlushTelemetry()
	return ds.Digest()
}

// exploreScenario re-runs sc step-wise and branches `futures` forks at up to
// maxExplorePoints interesting boundaries. Any control-fork digest mismatch
// is returned as a violation.
func exploreScenario(sc gen.Scenario, futures int) (exploreStats, []check.Violation, error) {
	sys, err := gen.Build(sc)
	if err != nil {
		return exploreStats{}, nil, err
	}
	sink := &interestSink{Digester: check.NewDigester()}
	for _, p := range sc.Spec.Partitions {
		m := make(map[string]vtime.Duration, len(p.Tasks))
		for _, t := range p.Tasks {
			d := t.Deadline
			if d == 0 {
				d = t.Period
			}
			m[t.Name] = d
		}
		sink.deadlines = append(sink.deadlines, m)
	}
	sys.AttachTelemetry(sink)

	horizon := vtime.Time(0).Add(sc.Horizon)
	seeder := rng.New(sc.Seed ^ 0x9e3779b97f4a7c15)
	var st exploreStats
	type control struct {
		at     vtime.Time
		digest uint64
	}
	var controls []control
	distinct := make(map[uint64]struct{})
	for sys.Now() < horizon {
		sink.interesting = false
		sys.Step(horizon)
		if !sink.interesting || st.Points >= maxExplorePoints || sys.Now() >= horizon {
			continue
		}
		st.Points++
		// Control: same state, same RNG position — its suffix, folded onto
		// the parent's prefix digest, must land on the parent's final digest.
		controls = append(controls, control{
			at:     sys.Now(),
			digest: runForkDigest(sys.Fork(), check.ResumeDigester(sink.Digest(), sink.Events()), horizon),
		})
		// Futures: same state, fresh seeds — how many schedules can the
		// policy still reach from here?
		clear(distinct)
		for k := 0; k < futures; k++ {
			f := sys.Fork()
			f.Rand.Seed(seeder.Uint64())
			distinct[runForkDigest(f, check.NewDigester(), horizon)] = struct{}{}
			st.Futures++
		}
		st.Distinct += int64(len(distinct))
	}
	sys.FlushTelemetry()

	var viols []check.Violation
	for _, c := range controls {
		if c.digest != sink.Digest() {
			st.ControlMismatches++
			viols = append(viols, check.Violation{
				Oracle: "fork-control", Time: c.at,
				Msg: fmt.Sprintf("control fork digest %#016x != parent %#016x", c.digest, sink.Digest()),
			})
		}
	}
	return st, viols, nil
}
