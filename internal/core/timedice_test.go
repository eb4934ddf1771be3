package core_test

import (
	"testing"

	"timedice/internal/analysis"
	"timedice/internal/core"
	"timedice/internal/engine"
	"timedice/internal/model"
	"timedice/internal/rng"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

// state builds a PartitionState for tests: full parameters with r_{i,t}+T_i
// given directly.
func state(b, t int64, remaining int64, nextRepl int64, runnable bool) core.PartitionState {
	return core.PartitionState{
		Budget:        vtime.MS(b),
		Period:        vtime.MS(t),
		Remaining:     vtime.MS(remaining),
		NextReplenish: vtime.Time(vtime.MS(nextRepl)),
		Active:        remaining > 0,
		Runnable:      runnable && remaining > 0,
	}
}

func TestSchedulabilityTestActiveSimple(t *testing.T) {
	// One high-priority partition P0: B=2,T=10, full budget, deadline at 10.
	// An inversion of w at t=0 leaves the busy interval w+2, schedulable iff
	// w+2 <= 10 (no other hp partitions, no future arrivals inside).
	states := []core.PartitionState{state(2, 10, 2, 10, true)}
	if !core.SchedulabilityTest(states, 0, 0, vtime.MS(8), nil) {
		t.Error("w=8: 8+2=10 <= 10 should pass")
	}
	if core.SchedulabilityTest(states, 0, 0, vtime.MS(8)+1, nil) {
		t.Error("w=8+1us: busy interval exceeds the deadline")
	}
}

func TestSchedulabilityTestWithHigherPriorityInterference(t *testing.T) {
	// P0: B=2,T=10 (full, next replenish 10); P1: B=3,T=15 (full, deadline 15).
	// Level-P1 busy interval with w: W0 = w + 3 + 2; P0's replenishment at 10
	// adds 2 more if the interval reaches past 10.
	states := []core.PartitionState{
		state(2, 10, 2, 10, true),
		state(3, 15, 3, 15, true),
	}
	// w = 5: W0 = 10, interval reaches exactly 10 → the arrival at offset 10
	// is outside [t, t+10), converges at 10 <= 15: pass.
	if !core.SchedulabilityTest(states, 1, 0, vtime.MS(5), nil) {
		t.Error("w=5 should pass")
	}
	// w = 6: W0 = 11 > 10 → P0's second budget lands inside: W = 13 <= 15: pass.
	if !core.SchedulabilityTest(states, 1, 0, vtime.MS(6), nil) {
		t.Error("w=6 should pass (13 <= 15)")
	}
	// w = 9: W0 = 14 → with P0 at 10: 16 > 15: fail.
	if core.SchedulabilityTest(states, 1, 0, vtime.MS(9), nil) {
		t.Error("w=9 should fail")
	}
}

func TestSchedulabilityTestInactiveIndirectInterference(t *testing.T) {
	// The Fig. 8 case: P1 is inactive (budget consumed); its next arrival is
	// at its replenishment and must meet the deadline r+2T. A large inversion
	// plus P0's interference can still delay that future execution.
	states := []core.PartitionState{
		state(4, 10, 4, 10, true),  // P0 active, full
		state(8, 12, 0, 12, false), // P1 inactive, arrives at 12, deadline 24
	}
	// w=1: W0 = 1 + 0 + 4 = 5; P0 replenishes at 10 (+4 → 9... iterate:
	// cur=5 → next = 5 + ceil((5-10)/10)*4=0 + P1 self at 12: 0 → 5 ≤ 24 ✓
	if !core.SchedulabilityTest(states, 1, 0, vtime.MS(1), nil) {
		t.Error("small inversion must pass for the inactive partition")
	}
	// Huge inversion: w=9 → W0 = 13; P0 at 10 (+4) → 17; P1 self arrival at
	// 12 (+8) → 25 > 24: fail. (Iterating adds both, order-independent.)
	if core.SchedulabilityTest(states, 1, 0, vtime.MS(9), nil) {
		t.Error("w=9 must fail: the future arrival misses its deadline")
	}
}

func TestSchedulabilityTestCountsTests(t *testing.T) {
	states := []core.PartitionState{state(2, 10, 2, 10, true)}
	var n int64
	core.SchedulabilityTest(states, 0, 0, vtime.Millisecond, &n)
	if n != 1 {
		t.Errorf("test counter = %d", n)
	}
}

func TestCandidateSearchTopAlwaysCandidate(t *testing.T) {
	// Even with zero slack, the highest-priority active partition is a
	// candidate (it causes no inversion).
	states := []core.PartitionState{
		state(10, 10, 10, 10, true), // 100% utilization, no slack
		state(5, 50, 5, 50, true),
	}
	res := core.CandidateSearch(states, 0, vtime.Millisecond, nil)
	if len(res.Candidates) != 1 || res.Candidates[0] != 0 {
		t.Fatalf("candidates = %v, want [0]", res.Candidates)
	}
	if res.IdleOK {
		t.Error("idle cannot be allowed when P0 has zero slack")
	}
}

func TestCandidateSearchAllPassWithSlack(t *testing.T) {
	// Lightly loaded: everything including idle passes.
	states := []core.PartitionState{
		state(1, 10, 1, 10, true),
		state(1, 20, 1, 20, true),
		state(1, 40, 1, 40, true),
	}
	res := core.CandidateSearch(states, 0, vtime.Millisecond, nil)
	if len(res.Candidates) != 3 {
		t.Fatalf("candidates = %v, want all three", res.Candidates)
	}
	if !res.IdleOK {
		t.Error("idle should pass in a lightly loaded system")
	}
}

func TestCandidateSearchStopsAtFirstFailure(t *testing.T) {
	// P0 has zero slack; P1 and P2 are runnable but any inversion breaks P0.
	states := []core.PartitionState{
		state(10, 10, 10, 10, true),
		state(1, 100, 1, 100, true),
		state(1, 200, 1, 200, true),
	}
	res := core.CandidateSearch(states, 0, vtime.Millisecond, nil)
	if len(res.Candidates) != 1 {
		t.Fatalf("candidates = %v, want only the top partition", res.Candidates)
	}
	// The failed test for P0 must short-circuit further tests: exactly 1 test.
	if res.Tests != 1 {
		t.Errorf("tests = %d, want 1 (short-circuit)", res.Tests)
	}
}

func TestCandidateSearchSkipsAboveTopActive(t *testing.T) {
	// hp(Π_(1)) is never tested (Algorithm 2's incremental rule): inactive
	// partitions ABOVE the top active partition do not block candidacy of
	// the top active partition, and are not tested for lower candidates
	// either, per hp(Π_(i)) − hp(Π_(i−1)).
	states := []core.PartitionState{
		state(9, 10, 0, 10, false), // inactive, nearly saturating
		state(2, 20, 2, 20, true),
		state(2, 40, 2, 40, true),
	}
	res := core.CandidateSearch(states, 0, vtime.Millisecond, nil)
	if len(res.Candidates) < 1 || res.Candidates[0] != 1 {
		t.Fatalf("candidates = %v, want first candidate = partition 1", res.Candidates)
	}
}

func TestCandidateSearchNoRunnable(t *testing.T) {
	states := []core.PartitionState{state(2, 10, 0, 10, false)}
	res := core.CandidateSearch(states, 0, vtime.Millisecond, nil)
	if len(res.Candidates) != 0 || res.IdleOK {
		t.Errorf("empty system: %+v", res)
	}
}

func TestSelectUniformCoversAllOptions(t *testing.T) {
	states := []core.PartitionState{
		state(1, 10, 1, 10, true),
		state(1, 20, 1, 20, true),
	}
	res := core.CandidateSearch(states, 0, vtime.Millisecond, nil)
	if !res.IdleOK {
		t.Fatal("precondition: idle allowed")
	}
	r := rng.New(1)
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		counts[core.Select(states, res, 0, core.SelectUniform, r, nil)]++
	}
	for _, opt := range []int{0, 1, core.IdleChoice} {
		if counts[opt] < 700 {
			t.Errorf("option %d drawn only %d/3000 under uniform", opt, counts[opt])
		}
	}
}

func TestSelectWeightedFollowsRemainingUtilization(t *testing.T) {
	// P0: u = 1/10; P1: u = 8/10. Weighted selection should strongly favor
	// P1, and idle gets 1 - 0.9 = 0.1.
	states := []core.PartitionState{
		state(1, 10, 1, 10, true),
		state(8, 10, 8, 10, true),
	}
	res := core.SearchResult{Candidates: []int{0, 1}, IdleOK: true}
	r := rng.New(2)
	counts := map[int]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[core.Select(states, res, 0, core.SelectWeighted, r, nil)]++
	}
	f0 := float64(counts[0]) / n
	f1 := float64(counts[1]) / n
	fi := float64(counts[core.IdleChoice]) / n
	if f1 < 0.75 || f1 > 0.85 {
		t.Errorf("P1 frequency %v, want ≈0.8", f1)
	}
	if f0 < 0.07 || f0 > 0.13 {
		t.Errorf("P0 frequency %v, want ≈0.1", f0)
	}
	if fi < 0.07 || fi > 0.13 {
		t.Errorf("idle frequency %v, want ≈0.1", fi)
	}
}

func TestPolicyNameAndQuantum(t *testing.T) {
	w := core.NewPolicy()
	if w.Name() != "TimeDiceW" || w.Quantum() != core.DefaultQuantum {
		t.Error("defaults wrong")
	}
	u := core.NewPolicy(core.WithSelection(core.SelectUniform), core.WithQuantum(vtime.MS(2)))
	if u.Name() != "TimeDiceU" || u.Quantum() != vtime.MS(2) {
		t.Error("options not applied")
	}
}

// budgetGuaranteeSystem builds a system where every partition's single task
// demands exactly the full budget every period, so any failure to deliver
// B_i within a period is observable as a shortfall.
func budgetGuaranteeSystem(t *testing.T, spec model.SystemSpec, policy engine.GlobalPolicy, seed uint64) *engine.System {
	t.Helper()
	greedy := spec
	greedy.Partitions = make([]model.PartitionSpec, len(spec.Partitions))
	copy(greedy.Partitions, spec.Partitions)
	for i := range greedy.Partitions {
		p := &greedy.Partitions[i]
		p.Tasks = []model.TaskSpec{{
			Name:   "greedy",
			Period: p.Period,
			WCET:   p.Budget,
		}}
	}
	built, err := greedy.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := engine.New(built.Partitions, policy, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSchedulabilityPreservation is the paper's central guarantee: partitions
// schedulable under fixed priority remain schedulable under TimeDice — every
// partition receives its full budget B_i in every replenishment period T_i.
func TestSchedulabilityPreservation(t *testing.T) {
	specs := []model.SystemSpec{workload.TableIBase(), workload.TableILight(), workload.ThreePartition()}
	for _, spec := range specs {
		if !analysis.SystemSchedulable(spec) {
			t.Fatalf("precondition: %q must be schedulable", spec.Name)
		}
		for _, mode := range []core.SelectionMode{core.SelectWeighted, core.SelectUniform} {
			for seed := uint64(1); seed <= 3; seed++ {
				pol := core.NewPolicy(core.WithSelection(mode))
				sys := budgetGuaranteeSystem(t, spec, pol, seed)
				verifyBudgetPerPeriod(t, sys, spec, vtime.Time(3*vtime.Second))
			}
		}
	}
}

// verifyBudgetPerPeriod runs sys until horizon and asserts each partition
// executed exactly B_i in every complete window [kT_i, (k+1)T_i).
func verifyBudgetPerPeriod(t *testing.T, sys *engine.System, spec model.SystemSpec, horizon vtime.Time) {
	t.Helper()
	n := len(spec.Partitions)
	got := make([]map[int64]vtime.Duration, n)
	for i := range got {
		got[i] = make(map[int64]vtime.Duration)
	}
	sys.TraceFn = func(seg engine.Segment) {
		if seg.Partition < 0 {
			return
		}
		T := spec.Partitions[seg.Partition].Period
		for t0 := seg.Start; t0 < seg.End; {
			k := int64(t0) / int64(T)
			winEnd := vtime.Time((k + 1) * int64(T))
			chunk := seg.End.Min(winEnd).Sub(t0)
			got[seg.Partition][k] += chunk
			t0 = t0.Add(chunk)
		}
	}
	sys.Run(horizon)
	for i, p := range spec.Partitions {
		periods := int64(horizon) / int64(p.Period)
		for k := int64(0); k < periods; k++ {
			if got[i][k] != p.Budget {
				t.Fatalf("%s (%s): period %d received %v, want full budget %v",
					spec.Name, p.Name, k, got[i][k], p.Budget)
			}
		}
	}
}

// TestTimeDiceActuallyRandomizes ensures the policy is not degenerate: it
// does select non-top candidates and sometimes idles the CPU.
func TestTimeDiceActuallyRandomizes(t *testing.T) {
	spec := workload.TableILight()
	pol := core.NewPolicy()
	sys := budgetGuaranteeSystem(t, spec, pol, 9)
	sys.Run(vtime.Time(2 * vtime.Second))
	st := pol.Stats()
	if st.Decisions == 0 {
		t.Fatal("no decisions")
	}
	if st.InversionsWon == 0 {
		t.Error("TimeDice never inverted priorities — not randomizing")
	}
	if st.IdleSelected == 0 {
		t.Error("TimeDice never idled the CPU in a lightly loaded system")
	}
	if st.SchedTests == 0 {
		t.Error("no schedulability tests recorded")
	}
	if avg := float64(st.CandidateSum) / float64(st.Decisions); avg < 1.2 {
		t.Errorf("average candidate-list size %.2f; expected >1 under light load", avg)
	}
}

// TestTimeDiceDiffersAcrossSeeds checks the schedule depends on the seed.
func TestTimeDiceDiffersAcrossSeeds(t *testing.T) {
	spec := workload.ThreePartition()
	traces := make([]string, 2)
	for i := range traces {
		pol := core.NewPolicy()
		sys := budgetGuaranteeSystem(t, spec, pol, uint64(100+i))
		var sig []byte
		sys.TraceFn = func(seg engine.Segment) {
			sig = append(sig, byte('0'+seg.Partition+1))
		}
		sys.Run(vtime.Time(vtime.MS(500)))
		traces[i] = string(sig)
	}
	if traces[0] == traces[1] {
		t.Error("different seeds produced identical randomized schedules")
	}
}

// TestSearchComplexityLinear verifies the O(|Π|) bound: per decision, at most
// one schedulability test per partition.
func TestSearchComplexityLinear(t *testing.T) {
	spec := workload.Scale(workload.TableIBase(), 2) // 10 partitions
	pol := core.NewPolicy()
	sys := budgetGuaranteeSystem(t, spec, pol, 3)
	sys.Run(vtime.Time(vtime.Second))
	st := pol.Stats()
	if st.Decisions == 0 {
		t.Fatal("no decisions")
	}
	maxTests := st.Decisions * int64(len(spec.Partitions))
	if st.SchedTests > maxTests {
		t.Errorf("schedulability tests %d exceed |Π|·decisions = %d", st.SchedTests, maxTests)
	}
}

func TestSnapshotMatchesServers(t *testing.T) {
	spec := workload.ThreePartition()
	built, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := engine.New(built.Partitions, core.NewPolicy(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	states := core.Snapshot(sys, nil)
	if len(states) != 3 {
		t.Fatalf("snapshot size %d", len(states))
	}
	for i, st := range states {
		srv := &sys.Partitions[i].Server
		if st.Budget != srv.Budget() || st.Period != srv.Period() ||
			st.Remaining != srv.Remaining() || st.NextReplenish != srv.Deadline() {
			t.Errorf("state %d mismatch: %+v", i, st)
		}
	}
}
