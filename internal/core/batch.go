package core

// This file is the verdict source of a TimeDice decision, stateView: the
// partition state one decision reads, and how it computes an Algorithm-3
// verdict. The candidate walk (search), the cache-aware test front end
// (testVerdict, cache.go), the lottery and Pick are written once, over a
// stateView; a view is bound in one of two ways:
//
//   - bind, the production source: it aliases the engine's struct-of-arrays
//     hot arenas (engine.Hot) and ready bitset, and verdicts run on the
//     divisionless decision kernel;
//   - bindSnapshot, the reference: a []PartitionState snapshot, with a ready
//     set rebuilt from the snapshot's own Runnable flags and verdicts from
//     the plain-division schedFixpoint/passHorizon (kernel.go).
//
// Policy.Pick always uses bind. The public CandidateSearch, Select and
// SchedulabilityTest use the reference, and so do the unit tests and the
// test-only reference policy of internal/gen, which snapshots the live
// servers every decision; its differential checks the engine's arena
// publication, its ready-bitset maintenance, the verdict cache and the
// kernel against the reference. The binding is data, not an interface: an interface or a generic type
// parameter sends every candidate's lottery read and every computed verdict
// through an indirect call, which measurably slows the decision-dominated
// dense-P1024 benchmark (EXPERIMENTS.md); here the only fork is one
// predictable branch per computed verdict.
//
// Why the production binding exists: under indexed stepping the engine
// already maintains exact per-partition hot state in contiguous slices
// (remaining, deadline, supply, budget, period) plus a hierarchical ready
// bitset. Snapshotting that into PartitionState structs costs an O(P)
// pointer chase per decision — the dominant term at P=4096+ where a decision
// touches a handful of partitions. bind aliases the arenas directly (O(1)),
// and the kernel hoists the loop-invariant terms of Eq. 1–2 out of the
// fixpoint iteration:
//
//   - off[j]       = supply_j − now      (the stream anchor, constant per decision)
//   - remPrefix[h] = Σ_{j<h} remaining_j (term (b), the hp remaining-budget sum)
//   - minOff[h]    = min_{j≤h} off[j]    (the earliest tracked arrival)
//
// All three are filled lazily in index order (extend), so a decision that
// tests up to partition h pays O(h) hoisting total — amortized O(1) per test.
//
// minOff makes the common test O(1): when the busy interval's opening length
// w0 reaches no tracked stream's first arrival, every interference term is
// zero and the run is settled before it starts (see fixpoint).
//
// Otherwise the fixpoint runs the decision kernel (kernel.go): no hardware
// division (interference counts come from the precomputed vtime.Reciprocal
// arena) and no redundant re-summation (the busy-interval length cur is
// monotone nondecreasing within a run, so the kernel maintains each tracked
// stream's next charged arrival in narr and a running interference sum,
// advancing only the streams whose arrival was crossed — O(changed) per
// iteration instead of O(h)). At convergence narr holds exactly the arrivals
// passHorizon would recompute, so the verdict's validity horizon falls out of
// the recorded minimum for free.
//
// Exactness contract: both bindings give the walk and the lottery the same
// values (including the NextSupply==0 fallback), and the kernel's verdicts,
// iteration counts and horizons equal the reference's, so candidate lists,
// lottery weights and random draws are bit-identical, while the reference
// deliberately keeps plain division as the oracle. TestViewMatchesAoS pins
// that per function (including per-iteration equality of the incremental
// sum); the reference-policy digest suite pins it end-to-end.

import (
	"timedice/internal/bitset"
	"timedice/internal/engine"
	"timedice/internal/vtime"
)

// stateView is the per-decision verdict source (see the file comment). Under
// bind the six arena slices and the ready bitset alias the engine's, never
// copied, and off, remPrefix, minOff and narr are policy-owned kernel
// scratch reused across decisions. Under bindSnapshot, ready, remaining and
// deadline are the view's own, rebuilt from the snapshot every decision. A
// view keeps one binding for its whole life, so bindSnapshot never writes
// into engine arenas.
type stateView struct {
	remaining []vtime.Duration
	budget    []vtime.Duration
	period    []vtime.Duration
	deadline  []vtime.Time
	supply    []vtime.Time
	recip     []vtime.Reciprocal
	ready     *bitset.Hier

	now vtime.Time

	// snap is the reference binding's snapshot; ref selects its
	// plain-division verdicts over the kernel.
	snap []PartitionState
	ref  bool

	// Hoisted per-decision terms, valid for indices < hoistN.
	off       []vtime.Duration // supplyAt(j) − now
	remPrefix []vtime.Duration // Σ_{j<h} remaining[j]
	minOff    []vtime.Duration // min_{j≤h} off[j]
	hoistN    int

	// Fixpoint scratch: narr[j] is stream j's next charged arrival during the
	// current fixpoint run.
	narr []vtime.Duration
}

// bind aliases the engine's arenas for one decision at instant now: the
// production binding. O(1) apart from one-time scratch growth.
func (v *stateView) bind(hot engine.Hot, now vtime.Time) {
	v.remaining = hot.Remaining
	v.budget = hot.Budget
	v.period = hot.Period
	v.deadline = hot.Deadline
	v.supply = hot.Supply
	v.recip = hot.Recip
	v.ready = hot.Ready
	v.now = now
	n := len(hot.Remaining)
	if cap(v.off) < n {
		v.off = make([]vtime.Duration, n)
		v.remPrefix = make([]vtime.Duration, n)
		v.minOff = make([]vtime.Duration, n)
		v.narr = make([]vtime.Duration, n)
	}
	v.off = v.off[:n]
	v.remPrefix = v.remPrefix[:n]
	v.minOff = v.minOff[:n]
	v.narr = v.narr[:n]
	v.hoistN = 0
}

// bindSnapshot binds the view to states taken at instant now: the reference
// binding. The ready set comes from the snapshot's own Runnable flags and the
// lottery reads copies of its remaining budgets and deadlines, so nothing is
// read from the engine's arenas or bitset; verdicts run on schedFixpoint.
func (v *stateView) bindSnapshot(states []PartitionState, now vtime.Time) {
	n := len(states)
	if v.ready == nil || v.ready.Len() != n {
		v.ready = bitset.New(n)
		v.remaining = make([]vtime.Duration, n)
		v.deadline = make([]vtime.Time, n)
	} else {
		v.ready.Reset()
	}
	for i := range states {
		s := &states[i]
		v.remaining[i] = s.Remaining
		v.deadline[i] = s.NextReplenish
		if s.Runnable {
			v.ready.Set(i)
		}
	}
	v.snap, v.ref, v.now = states, true, now
}

// verdict runs Algorithm 3 for partition h under an inversion of w on the
// binding's implementation. For a passing verdict, validFor is how far past
// now it stays exact.
func (v *stateView) verdict(h int, w vtime.Duration) (ok bool, validFor vtime.Duration, cost fixCost) {
	if v.ref {
		var cur, deadline vtime.Duration
		ok, cur, deadline, cost = schedFixpoint(v.snap, h, v.now, w)
		if ok {
			validFor = passHorizon(v.snap, h, v.now, cur, deadline)
		}
		return ok, validFor, cost
	}
	v.extend(h)
	ok, cur, deadline, minArr, cost := v.fixpoint(h, w)
	if ok {
		validFor = horizonOf(cur, deadline, minArr)
	}
	return ok, validFor, cost
}

// supplyAt mirrors PartitionState.supplyTime: the earliest future budget gain,
// defaulting to the replenishment deadline when the supply anchor is unset.
func (v *stateView) supplyAt(j int) vtime.Time {
	if v.supply[j] != 0 {
		return v.supply[j]
	}
	return v.deadline[j]
}

// extend fills off, remPrefix and minOff up through index h. Tests run in
// increasing h, so across one decision the total work is O(max h), not O(h)
// per test.
func (v *stateView) extend(h int) {
	for j := v.hoistN; j <= h; j++ {
		o := v.supplyAt(j).Sub(v.now)
		v.off[j] = o
		if j == 0 {
			v.remPrefix[0] = 0
			v.minOff[0] = o
		} else {
			v.remPrefix[j] = v.remPrefix[j-1] + v.remaining[j-1]
			v.minOff[j] = min(v.minOff[j-1], o)
		}
	}
	if h+1 > v.hoistN {
		v.hoistN = h + 1
	}
}

// fixpoint is schedFixpoint over the arena view — the Algorithm-3
// busy-interval iteration for partition h under an inversion of w — run as the
// incremental, divisionless decision kernel. Callers must extend(h) first.
//
// The tracked stream set is hp(Π_h), plus Π_h's own replenishment stream when
// it is inactive (its indirect interference term) — exactly the streams
// passHorizon charges.
//
// Fast path: every term ⌈(cur−o)/T⌉₀ is zero while cur ≤ o, so when w0 is at
// or below the earliest tracked arrival minOff[m−1] (or nothing is tracked)
// the interference sum at cur = w0 is zero, the first iteration's
// next = w0 + 0 equals cur, and the run converges there. Each stream's first
// arrival at or after w0 is its own anchor o, so the minimum the kernel would
// record is minOff[m−1] itself. The fast path returns exactly that — verdict,
// cur, deadline, minArr — in O(1), and charges the same one iteration and m
// terms kernelInit would have (the m terms are settled in bulk by the
// prefix minimum rather than evaluated one by one), so every counter and
// digest is identical to the kernel's.
//
// Otherwise kernelInit opens the run at cur = w0 with one divisionless sweep,
// leaving narr[j] = the first arrival of stream j at or after cur. Each
// subsequent iteration exploits that cur only grows: streams whose recorded
// arrival is still at or beyond the new cur contribute no new
// replenishments, so their count, sum share, and arrival carry over
// untouched, and the rescan (guarded by the running minimum arrival) advances only the
// crossed ones. The running sum therefore always equals the reference's
// from-scratch Σ ⌈(cur−o)/T⌉₀·B — in exact integers, hence bit-for-bit in
// int64 — and the iteration sequence (and so the verdict and converged cur)
// replays the reference exactly. At convergence narr holds precisely the
// arrivals passHorizon recomputes; their minimum is returned in minArr for
// horizonOf.
func (v *stateView) fixpoint(h int, w vtime.Duration) (ok bool, cur, deadline, minArr vtime.Duration, cost fixCost) {
	active := v.remaining[h] > 0
	w0 := w + v.remPrefix[h]
	if active {
		w0 += v.remaining[h]
		deadline = v.deadline[h].Sub(v.now)
	} else {
		deadline = v.deadline[h].Add(v.period[h]).Sub(v.now)
	}
	if w0 > deadline {
		return false, 0, deadline, 0, cost
	}
	m := h
	if !active {
		m = h + 1
	}
	cost.terms = int64(m)
	top := m // streams the prefix minimum covers
	if fastPathDropsOwnStream && !active {
		top = h
	}
	if top == 0 || w0 <= v.minOff[top-1] {
		cost.iters = 1
		if fixpointIterHook != nil {
			fixpointIterHook(h, w0, 0)
		}
		if top == 0 {
			return true, w0, deadline, vtime.Forever, cost
		}
		return true, w0, deadline, v.minOff[top-1], cost
	}
	off := v.off[:m]
	per := v.period[:m]
	bud := v.budget[:m]
	rec := v.recip[:m]
	narr := v.narr[:m]
	cur = w0
	sum, minArr := kernelInit(off, per, bud, rec, narr, cur)
	for {
		cost.iters++
		if fixpointIterHook != nil {
			fixpointIterHook(h, cur, sum)
		}
		next := w0 + sum
		if next > deadline {
			return false, cur, deadline, 0, cost
		}
		if next == cur {
			return true, cur, deadline, minArr, cost
		}
		cur = next
		if cur > minArr {
			minArr = vtime.Forever
			for j, a := range narr {
				if a < cur {
					d := vtime.Duration(rec[j].CeilDiv(cur - a))
					sum += d * bud[j]
					a += d * per[j]
					narr[j] = a
					cost.terms++
				}
				if a < minArr {
					minArr = a
				}
			}
		}
	}
}

// horizonOf is passHorizon over the view: how far past now a passing verdict
// stays exact, from the converged fixpoint value cur, the relative deadline,
// and the minimum next charged arrival minArr the fixpoint returned — the
// tracked streams' first arrivals at or after cur are already in hand, so no
// division and no O(h) rescan. When the tracked set is empty (h = 0 and
// active), minArr is Forever and only the deadline slack bounds the horizon,
// as in the reference.
func horizonOf(cur, deadline, minArr vtime.Duration) vtime.Duration {
	horizon := deadline - cur
	if gap := minArr - cur; gap < horizon {
		horizon = gap
	}
	return horizon
}
