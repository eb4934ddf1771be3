package core

import (
	"fmt"
	"math"
	"testing"

	"timedice/internal/bitset"
	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// viewFromStates builds a stateView (plus its ready bitset) holding exactly
// the same facts as the AoS snapshot, the way the engine arenas would.
func viewFromStates(states []PartitionState, now vtime.Time) *stateView {
	n := len(states)
	v := &stateView{
		remaining: make([]vtime.Duration, n),
		budget:    make([]vtime.Duration, n),
		period:    make([]vtime.Duration, n),
		deadline:  make([]vtime.Time, n),
		supply:    make([]vtime.Time, n),
		recip:     make([]vtime.Reciprocal, n),
		ready:     bitset.New(n),
		now:       now,
		off:       make([]vtime.Duration, n),
		narr:      make([]vtime.Duration, n),
	}
	for i := range states {
		s := &states[i]
		v.remaining[i] = s.Remaining
		v.budget[i] = s.Budget
		v.period[i] = s.Period
		v.deadline[i] = s.NextReplenish
		v.supply[i] = s.NextSupply
		v.recip[i] = vtime.NewReciprocal(s.Period)
		if s.Runnable {
			v.ready.Set(i)
		}
	}
	return v
}

// refView binds a view to states the reference way.
func refView(states []PartitionState, now vtime.Time) *stateView {
	v := &stateView{}
	v.bindSnapshot(states, now)
	return v
}

// randomStates generates a priority-ordered system snapshot with a mix of
// active/inactive, runnable/blocked partitions, supply anchors both set and
// unset (the NextSupply==0 fallback), and occasional sporadic early chunks.
func randomStates(r *rng.Rand, n int, now vtime.Time) []PartitionState {
	states := make([]PartitionState, n)
	for i := range states {
		period := vtime.Duration(1+r.Intn(50)) * vtime.Millisecond
		budget := vtime.Duration(1+r.Intn(int(period/vtime.Millisecond))) * vtime.Millisecond / 2
		if budget <= 0 {
			budget = vtime.Millisecond / 2
		}
		st := PartitionState{Budget: budget, Period: period}
		// Deadline lands somewhere in (now, now+period].
		st.NextReplenish = now.Add(vtime.Duration(1 + r.Intn(int(period))))
		switch r.Intn(4) {
		case 0: // inactive
		case 1: // active, blocked (no ready work)
			st.Remaining = vtime.Duration(1 + r.Intn(int(budget)))
		default: // active and runnable
			st.Remaining = vtime.Duration(1 + r.Intn(int(budget)))
			st.Runnable = true
		}
		st.Active = st.Remaining > 0
		switch r.Intn(3) {
		case 0:
			st.NextSupply = 0 // unset: falls back to NextReplenish
		case 1:
			st.NextSupply = st.NextReplenish
		default: // sporadic chunk strictly before the deadline
			st.NextSupply = now.Add(vtime.Duration(1 + r.Intn(int(st.NextReplenish.Sub(now)))))
		}
		states[i] = st
	}
	return states
}

// foldThrough runs the walk's prefix fold (stateView.fold) over partitions
// 0..h, writing their stream anchors, and returns the fold a level-h test
// reads.
func foldThrough(v *stateView, h int) prefix {
	p := noPrefix
	for j := 0; j <= h; j++ {
		p = v.fold(p, j)
	}
	return p
}

// unsetArrival marks arrival-buffer slots no fixpoint has written. Every
// arrival the kernel records is at or after the busy-interval start w0 > 0,
// so it can never collide with a real arrival.
const unsetArrival vtime.Duration = -1

// fixpointBranch runs the view fixpoint for level h, under p, the fold through
// h, on an arrival buffer filled with unsetArrival and reports whether the
// fast path settled it:
// kernelInit records an arrival for every tracked stream, while the fast path
// (and the early w0 > deadline exit, which runs no iteration) leaves the
// buffer untouched.
func fixpointBranch(v *stateView, h int, w vtime.Duration, p prefix) (ok bool, cur, deadline, minArr vtime.Duration, cost fixCost, fast bool) {
	for j := range v.narr {
		v.narr[j] = unsetArrival
	}
	ok, cur, deadline, minArr, cost = v.fixpoint(h, w, p)
	return ok, cur, deadline, minArr, cost, cost.iters > 0 && v.narr[0] == unsetArrival
}

// TestViewMatchesAoS is the differential pin for the batched path: on random
// snapshots, the view fixpoint (the divisionless incremental kernel), the
// full candidate search (cached and uncached), and the lottery selection must
// reproduce the AoS reference bit-for-bit — same verdicts, same candidates,
// same test and iteration counts, same random draws. A fixpointIterHook
// additionally re-sums the interference from scratch with plain division at
// every kernel iteration and requires the incrementally maintained sum to
// match exactly. The trials must reach both the fast path and the kernel.
func TestViewMatchesAoS(t *testing.T) {
	r := rng.New(0xd1ce)
	now := vtime.Time(17 * vtime.Millisecond)
	w := DefaultQuantum

	// The hook sees every kernel iteration of the trial's fixpoints,
	// including those run inside the searches below.
	var hookStates []PartitionState
	fixpointIterHook = func(h int, cur, sum vtime.Duration) {
		m := h
		if !hookStates[h].Active {
			m = h + 1
		}
		var ref vtime.Duration
		for j := 0; j < m; j++ {
			o := hookStates[j].supplyTime().Sub(now)
			ref += streamInterference(cur, o, hookStates[j].Period, hookStates[j].Budget)
		}
		if sum != ref {
			t.Fatalf("h=%d cur=%v: incremental sum %v, re-summed reference %v", h, cur, sum, ref)
		}
	}
	defer func() { fixpointIterHook = nil }()

	var fastRuns, kernelRuns int
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(24)
		states := randomStates(r, n, now)
		hookStates = states
		v := viewFromStates(states, now)

		// Per-partition fixpoint verdicts, each under the walk's fold.
		p := noPrefix
		for h := 0; h < n; h++ {
			p = v.fold(p, h)
			aok, acur, adl, acost := schedFixpoint(states, h, now, w)
			vok, vcur, vdl, vmin, vcost, fast := fixpointBranch(v, h, w, p)
			switch {
			case fast:
				fastRuns++
			case vcost.iters > 0:
				kernelRuns++
			}
			if aok != vok || acur != vcur || adl != vdl {
				t.Fatalf("trial %d h=%d: fixpoint (%v,%v,%v) vs view (%v,%v,%v)",
					trial, h, aok, acur, adl, vok, vcur, vdl)
			}
			if acost.iters != vcost.iters {
				t.Fatalf("trial %d h=%d: reference ran %d iterations, kernel %d — the kernel must replay the iteration sequence exactly",
					trial, h, acost.iters, vcost.iters)
			}
			if vcost.terms > acost.terms {
				t.Fatalf("trial %d h=%d: kernel evaluated %d interference terms, reference %d — incremental advance must never exceed full re-summation",
					trial, h, vcost.terms, acost.terms)
			}
			if aok {
				ah := passHorizon(states, h, now, acur, adl)
				vh := horizonOf(vcur, vdl, vmin)
				if ah != vh {
					t.Fatalf("trial %d h=%d: passHorizon %v vs view %v", trial, h, ah, vh)
				}
			}
		}

		// Uncached search.
		ref := refView(states, now)
		ares := search(ref, w, nil, nil)
		vres := search(v, w, nil, nil)
		compareSearch(t, trial, "uncached", ares, vres)

		// Cached search: two fresh caches fed identical stamps must behave
		// identically (verdicts, hit/miss counts, searchValid).
		stamps := make([]uint64, n)
		for i := range stamps {
			stamps[i] = uint64(r.Intn(5))
		}
		ac, vc := &Cache{}, &Cache{}
		ac.begin(stamps)
		vc.begin(stamps)
		ares = search(ref, w, nil, ac)
		vres = search(v, w, nil, vc)
		compareSearch(t, trial, "cached", ares, vres)
		if ac.Hits() != vc.Hits() || ac.Misses() != vc.Misses() || ac.searchValid != vc.searchValid {
			t.Fatalf("trial %d: cache divergence: AoS %d/%d valid %v, view %d/%d valid %v",
				trial, ac.Hits(), ac.Misses(), ac.searchValid, vc.Hits(), vc.Misses(), vc.searchValid)
		}

		// Selection: identical seeds must yield identical choices in both
		// modes (weighted exercises the float weight arithmetic).
		if len(ares.Candidates) > 0 || ares.IdleOK {
			for _, mode := range []SelectionMode{SelectWeighted, SelectUniform} {
				seed := uint64(trial)*2 + uint64(mode)
				got := lottery(v, vres, mode, rng.New(seed), nil)
				want := Select(states, ares, now, mode, rng.New(seed), nil)
				if got != want {
					t.Fatalf("trial %d mode %v: view lottery = %d, Select = %d", trial, mode, got, want)
				}
			}
		}
	}
	if fastRuns == 0 || kernelRuns == 0 {
		t.Fatalf("trials reached the fast path %d times and the kernel %d times; both branches must be exercised", fastRuns, kernelRuns)
	}
}

// fastPathCase is one fast-path boundary fixture: level h of states at
// fastPathNow, and whether the fast path must settle it.
type fastPathCase struct {
	name   string
	states []PartitionState
	h      int
	fast   bool
}

const fastPathNow = vtime.Time(17 * vtime.Millisecond)

// fastPathCases are the fixtures of TestFixpointFastPath, on both sides of
// every boundary of the fast path's condition.
func fastPathCases() []fastPathCase {
	const ms = vtime.Millisecond
	now := fastPathNow
	// part builds one partition with a 2 ms budget every 20 ms, its deadline
	// dl past now, and its supply anchor supply past now (negative: unset,
	// falling back to the deadline).
	part := func(rem, dl, supply vtime.Duration) PartitionState {
		st := PartitionState{
			Budget:        2 * ms,
			Period:        20 * ms,
			Remaining:     rem,
			Active:        rem > 0,
			Runnable:      rem > 0,
			NextReplenish: now.Add(dl),
		}
		if supply >= 0 {
			st.NextSupply = now.Add(supply)
		}
		return st
	}
	return []fastPathCase{
		// h = 1 active: w0 = w + 1 ms + 1 ms = 3 ms.
		{"w0 equals the earliest anchor", []PartitionState{part(ms, 10*ms, 3*ms), part(ms, 10*ms, -1)}, 1, true},
		{"w0 one past the earliest anchor", []PartitionState{part(ms, 10*ms, 3*ms-1), part(ms, 10*ms, -1)}, 1, false},
		{"supply due at now", []PartitionState{part(ms, 10*ms, 0), part(ms, 10*ms, -1)}, 1, false},
		// h = 1 inactive: w0 = w + 1 ms = 2 ms, and its own stream (anchored
		// at its deadline) is the earliest tracked arrival.
		{"inactive own stream holds the earliest anchor", []PartitionState{part(ms, 10*ms, 8*ms), part(0, 2*ms, -1)}, 1, true},
		{"inactive own stream inside the interval", []PartitionState{part(ms, 10*ms, 8*ms), part(0, 2*ms-1, -1)}, 1, false},
		// h = 0 active tracks no stream at all.
		{"h=0 active", []PartitionState{part(ms, 10*ms, 3*ms), part(ms, 10*ms, -1)}, 0, true},
	}
}

// fastPathMismatches runs one fixture through the view fixpoint and the
// reference (schedFixpoint and passHorizon) and describes every way the two
// differ, or the fast path's branch differs from the fixture's; nil when the
// fixture holds.
func fastPathMismatches(tc fastPathCase) []string {
	now, w := fastPathNow, DefaultQuantum
	v := viewFromStates(tc.states, now)
	aok, acur, adl, acost := schedFixpoint(tc.states, tc.h, now, w)
	vok, vcur, vdl, vmin, vcost, fast := fixpointBranch(v, tc.h, w, foldThrough(v, tc.h))
	var out []string
	if fast != tc.fast {
		out = append(out, fmt.Sprintf("fast path taken = %v, want %v", fast, tc.fast))
	}
	if !aok || !vok {
		return append(out, fmt.Sprintf("fixture must pass (reference %v, view %v)", aok, vok))
	}
	if acur != vcur || adl != vdl || acost.iters != vcost.iters {
		out = append(out, fmt.Sprintf("reference (cur %v, deadline %v, %d iterations) vs view (cur %v, deadline %v, %d iterations)",
			acur, adl, acost.iters, vcur, vdl, vcost.iters))
	}
	if fast && vcost.terms != acost.terms {
		out = append(out, fmt.Sprintf("fast path charged %d terms, reference %d", vcost.terms, acost.terms))
	}
	if ah, vh := passHorizon(tc.states, tc.h, now, acur, adl), horizonOf(vcur, vdl, vmin); ah != vh {
		out = append(out, fmt.Sprintf("passHorizon %v vs view horizon %v", ah, vh))
	}
	if tc.h == 0 && vmin != vtime.Forever {
		out = append(out, fmt.Sprintf("minArr = %v with no tracked stream, want Forever", vmin))
	}
	return out
}

// TestFixpointFastPath pins the fast path's boundaries against the reference
// (schedFixpoint and passHorizon): the run is settled without the kernel
// exactly when the opening interval w0 reaches no tracked stream's first
// arrival, and the settled run carries the reference's verdict, interval,
// iteration and term counts, and validity horizon.
func TestFixpointFastPath(t *testing.T) {
	for _, tc := range fastPathCases() {
		for _, msg := range fastPathMismatches(tc) {
			t.Errorf("%s: %s", tc.name, msg)
		}
	}
}

func compareSearch(t *testing.T, trial int, ctx string, a, b SearchResult) {
	t.Helper()
	if a.IdleOK != b.IdleOK || a.Tests != b.Tests || len(a.Candidates) != len(b.Candidates) {
		t.Fatalf("trial %d %s: AoS (cand %d, idle %v, tests %d) vs view (cand %d, idle %v, tests %d)",
			trial, ctx, len(a.Candidates), a.IdleOK, a.Tests, len(b.Candidates), b.IdleOK, b.Tests)
	}
	// Iteration counts are path-independent; term counts are not (the kernel
	// skips unchanged streams) but can only save work, never add it.
	if a.FixpointIters != b.FixpointIters {
		t.Fatalf("trial %d %s: AoS ran %d fixpoint iterations, view %d", trial, ctx, a.FixpointIters, b.FixpointIters)
	}
	if b.InterferenceTerms > a.InterferenceTerms {
		t.Fatalf("trial %d %s: view evaluated %d interference terms, AoS %d", trial, ctx, b.InterferenceTerms, a.InterferenceTerms)
	}
	for k := range a.Candidates {
		if a.Candidates[k] != b.Candidates[k] {
			t.Fatalf("trial %d %s: candidate[%d] = %d vs %d", trial, ctx, k, a.Candidates[k], b.Candidates[k])
		}
	}
}

// TestViewExtendLazy pins the amortization property: a search whose walk
// stops at partition h folds only partitions 0..h into the prefix terms,
// never all P. fold writes each partition's stream anchor off[j] as the walk
// passes it, so the anchors left unwritten count what the walk skipped.
func TestViewExtendLazy(t *testing.T) {
	const n = 4096
	now := vtime.Time(5 * vtime.Millisecond)
	states := make([]PartitionState, n)
	for i := range states {
		states[i] = PartitionState{
			Budget:        vtime.Millisecond,
			Period:        20 * vtime.Millisecond,
			NextReplenish: now.Add(10 * vtime.Millisecond),
		}
	}
	// Only partitions 3 and 7 runnable: the search tests h in [3,7) and then
	// idle coverage h in [7,n) — but a failing test at h=8 stops it early.
	states[3].Remaining = vtime.Millisecond
	states[3].Runnable = true
	states[3].Active = true
	states[7].Remaining = vtime.Millisecond
	states[7].Runnable = true
	states[7].Active = true
	// Make h=8 fail: inactive with an already-passed effective deadline is
	// impossible (deadline includes +Period), so overload it instead — huge
	// remaining demand above it cannot fit. Simplest: give h=8 a deadline so
	// tight the base term misses it.
	states[8].Remaining = 9 * vtime.Millisecond
	states[8].Active = true
	states[8].NextReplenish = now.Add(2 * vtime.Millisecond)
	v := viewFromStates(states, now)
	const unfolded = vtime.Duration(math.MinInt64)
	for j := range v.off {
		v.off[j] = unfolded
	}
	res := search(v, DefaultQuantum, nil, nil)
	if len(res.Candidates) != 2 || res.IdleOK {
		t.Fatalf("unexpected search result: %+v", res)
	}
	folded := 0
	for _, o := range v.off {
		if o != unfolded {
			folded++
		}
	}
	if folded > 16 {
		t.Fatalf("the walk folded %d of %d partitions after a search that stops at h=8; the fold is not lazy", folded, n)
	}
	aos := CandidateSearch(states, now, DefaultQuantum, nil)
	compareSearch(t, 0, "lazy", aos, res)
}
