package core

import (
	"fmt"
	"slices"
	"testing"

	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// textbookSearch is Algorithm 1 as written, without the incremental rule: each
// runnable partition Π_(i), in priority order, re-tests from scratch with
// SchedulabilityTest every partition from the top runnable one Π_(1) down to
// the one just above Π_(i) — hp(Π_(i)) − hp(Π_(1)): the partitions above
// Π_(1) are never tested (TestCandidateSearchSkipsAboveTopActive) — and is a
// candidate iff all of them pass, so Π_(1) is one untested. Idling is a
// candidate iff every partition from Π_(1) down passes. Every candidacy is decided on its own,
// sharing no verdict and no early exit with the others.
//
// tests is the number of distinct partitions it tested: the incremental walk
// must run exactly one test for each of them (Fig. 9's rule), and no other.
func textbookSearch(states []PartitionState, now vtime.Time, w vtime.Duration) (cands []int, idleOK bool, tests int64) {
	tested := make([]bool, len(states))
	passAll := func(from, to int) bool {
		for h := from; h < to; h++ {
			tested[h] = true
			if !SchedulabilityTest(states, h, now, w, nil) {
				return false
			}
		}
		return true
	}
	first := -1
	for i := range states {
		if !states[i].Runnable {
			continue
		}
		if first < 0 {
			first = i
		}
		if passAll(first, i) {
			cands = append(cands, i)
		}
	}
	if first >= 0 {
		idleOK = passAll(first, len(states))
	}
	for _, t := range tested {
		if t {
			tests++
		}
	}
	return cands, idleOK, tests
}

// oracleMismatch reports how search's result differs from the textbook
// walk's, or "" when Candidates, IdleOK and Tests all agree.
func oracleMismatch(res SearchResult, cands []int, idleOK bool, tests int64) string {
	if !slices.Equal(res.Candidates, cands) || res.IdleOK != idleOK || res.Tests != tests {
		return fmt.Sprintf("search (candidates %v, idle %v, tests %d) vs textbook (candidates %v, idle %v, tests %d)",
			res.Candidates, res.IdleOK, res.Tests, cands, idleOK, tests)
	}
	return ""
}

// searchMismatches runs the one walk under the reference binding, the kernel
// binding, and the kernel binding with a cold cache, and compares each
// against the textbook walk.
func searchMismatches(states []PartitionState, now vtime.Time, w vtime.Duration) []string {
	cands, idleOK, tests := textbookSearch(states, now, w)
	stamps := make([]uint64, len(states))
	var c Cache
	c.begin(stamps)
	var out []string
	for _, run := range []struct {
		name string
		res  SearchResult
	}{
		{"reference", search(refView(states, now), w, nil, nil)},
		{"kernel", search(viewFromStates(states, now), w, nil, nil)},
		{"kernel+cache", search(viewFromStates(states, now), w, nil, &c)},
	} {
		if msg := oracleMismatch(run.res, cands, idleOK, tests); msg != "" {
			out = append(out, run.name+": "+msg)
		}
	}
	return out
}

// TestSearchMatchesTextbook pins the one candidate walk, which both bindings
// share, against textbookSearch on random systems large enough that the ready
// set spans three 64-bit words. The trials must reach every way a walk ends:
// the top runnable partition below partition 0, a failure that rejects a
// runnable partition, a failure met only by idle candidacy, and idle
// admitted.
func TestSearchMatchesTextbook(t *testing.T) {
	r := rng.New(0x0a1c)
	now := vtime.Time(17 * vtime.Millisecond)
	w := DefaultQuantum
	var firstBelowTop, candFail, idleFail, idleOK, crossWord int
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(130)
		states := randomStates(r, n, now)
		// Lighten half the trials so that walks get past the first ready-set
		// word: every budget divided by n keeps the total demand near one
		// partition's, and periods and deadlines at least 20 ms keep the
		// quantum's inversion from failing a short deadline.
		if trial%2 == 0 {
			for i := range states {
				st := &states[i]
				rel := st.NextReplenish.Sub(now)
				st.Period += 20 * vtime.Millisecond
				st.NextReplenish = now.Add(st.Period - rel/2)
				st.NextSupply = min(st.NextSupply, st.NextReplenish)
				st.Budget = max(st.Budget/vtime.Duration(n), 1)
				st.Remaining /= vtime.Duration(n)
				st.Active = st.Remaining > 0
				st.Runnable = st.Runnable && st.Active
			}
		}
		for _, msg := range searchMismatches(states, now, w) {
			t.Fatalf("trial %d (n=%d): %s", trial, n, msg)
		}
		cands, ok, _ := textbookSearch(states, now, w)
		runnable := 0
		for i := range states {
			if states[i].Runnable {
				runnable++
				if runnable == 1 && i > 0 {
					firstBelowTop++
				}
			}
		}
		switch {
		case runnable == 0:
		case ok:
			idleOK++
		case len(cands) < runnable:
			candFail++
		default:
			idleFail++
		}
		if len(cands) > 0 && cands[len(cands)-1] >= 64 {
			crossWord++
		}
	}
	t.Logf("first runnable below 0: %d, candidate-phase failures: %d, idle-phase failures: %d, idle admitted: %d, a candidate past index 63: %d",
		firstBelowTop, candFail, idleFail, idleOK, crossWord)
	if firstBelowTop == 0 || candFail == 0 || idleFail == 0 || idleOK == 0 || crossWord == 0 {
		t.Fatal("the trials must reach every way a walk ends and admit candidates past the first ready-set word")
	}
}

// TestSearchTextbookCases pins one fixed system for each way a walk ends,
// with its expected result, against both the expectation and the textbook
// walk.
func TestSearchTextbookCases(t *testing.T) {
	const ms = vtime.Millisecond
	// part builds one partition: budget, period, remaining and the deadline
	// past now 0, all in ms.
	part := func(budget, period, rem, dl vtime.Duration, runnable bool) PartitionState {
		return PartitionState{
			Budget: budget * ms, Period: period * ms, Remaining: rem * ms,
			NextReplenish: vtime.Time(dl * ms), Active: rem > 0, Runnable: runnable,
		}
	}
	cases := []struct {
		name   string
		states []PartitionState
		cands  []int
		idleOK bool
		tests  int64
	}{
		{"no partition runnable",
			[]PartitionState{part(2, 10, 0, 10, false), part(2, 20, 1, 20, false)},
			nil, false, 0},
		{"first runnable partition below partition 0",
			[]PartitionState{part(2, 10, 0, 10, false), part(1, 20, 1, 20, true), part(1, 40, 1, 40, true)},
			[]int{1, 2}, true, 2},
		{"failure in the candidate phase",
			[]PartitionState{part(10, 10, 10, 10, true), part(1, 100, 1, 100, true), part(1, 200, 1, 200, true)},
			[]int{0}, false, 1},
		{"failure in the idle phase",
			[]PartitionState{part(1, 10, 1, 10, true), part(5, 10, 5, 5, false)},
			[]int{0}, false, 2},
	}
	for _, tc := range cases {
		res := search(refView(tc.states, 0), DefaultQuantum, nil, nil)
		if msg := oracleMismatch(res, tc.cands, tc.idleOK, tc.tests); msg != "" {
			t.Errorf("%s: expected result: %s", tc.name, msg)
		}
		for _, msg := range searchMismatches(tc.states, 0, DefaultQuantum) {
			t.Errorf("%s: %s", tc.name, msg)
		}
	}
}
