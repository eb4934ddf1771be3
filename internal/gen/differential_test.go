package gen

import (
	"fmt"
	"testing"

	"timedice/internal/check"
	"timedice/internal/core"
	"timedice/internal/engine"
	"timedice/internal/experiments/runner"
	"timedice/internal/partition"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// diffOptions narrows the sampling space to the TimeDice policies, the only
// ones the reference policy stands in for.
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

// refPolicy is the TimeDice reference decision: every Pick snapshots the
// live servers (core.Snapshot) and runs the uncached, plain-division
// core.CandidateSearch and core.Select on the system stream. It has no
// verdict cache, no search reuse and no view of the engine's arenas or ready
// bitset. It counts only the decision tallies that do not depend on how a
// verdict was reached.
type refPolicy struct {
	quantum vtime.Duration
	mode    core.SelectionMode
	states  []core.PartitionState
	stats   core.Stats
	last    core.SearchResult
}

func (p *refPolicy) Name() string            { return "TimeDiceReference" }
func (p *refPolicy) Quantum() vtime.Duration { return p.quantum }
func (p *refPolicy) Stats() core.Stats       { return p.stats }
func (p *refPolicy) DecisionDetail() (candidates, tests int64) {
	return int64(len(p.last.Candidates)), p.last.Tests
}

func (p *refPolicy) Pick(sys *engine.System, now vtime.Time) *partition.Partition {
	p.states = core.Snapshot(sys, p.states)
	res := core.CandidateSearch(p.states, now, p.quantum, nil)
	p.last = res
	p.stats.Decisions++
	p.stats.CandidateSum += int64(len(res.Candidates))
	if res.IdleOK {
		p.stats.IdleEligible++
	}
	if len(res.Candidates) == 0 {
		return nil
	}
	choice := core.Select(p.states, res, now, p.mode, sys.Rand, nil)
	if choice == core.IdleChoice {
		p.stats.IdleSelected++
		return nil
	}
	if choice != res.Candidates[0] {
		p.stats.InversionsWon++
	}
	return sys.Partitions[choice]
}

// runReference is RunRecorded with the scenario's TimeDice policy replaced by
// refPolicy of the same quantum and selection mode.
func runReference(sc Scenario) (*check.Suite, RunStats, error) {
	mode := core.SelectWeighted
	if sc.Policy == policies.TimeDiceU {
		mode = core.SelectUniform
	}
	suite, sys, err := run(sc, nil, func(sys *engine.System) {
		sys.Policy = &refPolicy{quantum: sys.Policy.Quantum(), mode: mode}
	})
	if err != nil {
		return nil, RunStats{}, err
	}
	return suite, runStats(sys), nil
}

// decisionTallies projects core.Stats to the tallies refPolicy counts too.
func decisionTallies(s core.Stats) core.Stats {
	return core.Stats{
		Decisions:     s.Decisions,
		CandidateSum:  s.CandidateSum,
		IdleEligible:  s.IdleEligible,
		IdleSelected:  s.IdleSelected,
		InversionsWon: s.InversionsWon,
	}
}

// referenceMismatch runs sc under the production policy and under refPolicy
// and describes the first way the two runs differ, or returns "" when they
// agree.
func referenceMismatch(sc Scenario) (string, error) {
	prod, pst, err := RunRecorded(sc, nil)
	if err != nil {
		return "", err
	}
	ref, rst, err := runReference(sc)
	if err != nil {
		return "", err
	}
	if pd, rd := prod.Digest(), ref.Digest(); pd != rd {
		enc, _ := Encode(sc)
		return fmt.Sprintf("digest %#x != reference %#x\nscenario: %s", pd, rd, enc), nil
	}
	_, pv := prod.Violations()
	_, rv := ref.Violations()
	if pv != rv {
		return fmt.Sprintf("%d violations, reference %d", pv, rv), nil
	}
	// The Work rows are left out: a cache hit or a reused search skips
	// Algorithm-3 work the uncached reference always runs.
	if pc, rc := pst.Counters.Only(engine.State), rst.Counters.Only(engine.State); pc != rc {
		return fmt.Sprintf("counter divergence:\npolicy:    %+v\nreference: %+v", pc, rc), nil
	}
	if pt, rt := decisionTallies(pst.Policy), rst.Policy; pt != rt {
		return fmt.Sprintf("decision-tally divergence:\npolicy:    %+v\nreference: %+v", pt, rt), nil
	}
	return "", nil
}

// TestReferenceDigestsMatch is the exactness proof for the production
// TimeDice decision path: over the generated TimeDice corpus, core.Policy —
// the engine's arenas and ready bitset, the verdict cache, whole-search
// reuse and the divisionless kernel — must reproduce refPolicy's run: the
// same event-stream digest, oracle verdicts, State counter rows and decision
// tallies. Any unsound cache hit or reused
// search, stale arena entry or ready bit, or kernel drift flips at least one
// decision and shows up as a digest mismatch; a bookkeeping slip in Pick
// shows up as a tally mismatch even when the schedule happens to agree.
func TestReferenceDigestsMatch(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 150
	}
	scs := diffScenarios(n, 0xd1ce)
	_, err := runner.Map(0, scs, func(i int, sc Scenario) (struct{}, error) {
		msg, err := referenceMismatch(sc)
		if err != nil {
			t.Errorf("scenario %d: %v", i, err)
		} else if msg != "" {
			t.Errorf("scenario %d: %s", i, msg)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
