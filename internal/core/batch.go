package core

// This file is the verdict source of a TimeDice decision, stateView: the
// partition state one decision reads, and how it computes an Algorithm-3
// verdict. The candidate walk (search, which also consults the verdict cache
// of cache.go), the lottery and Pick are written once, over a stateView; a
// view is bound in one of two ways:
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
// kernel against the reference. The binding is data, not an interface: an
// interface or a generic type parameter sends every candidate's lottery read
// and every computed verdict through an indirect call, which measurably slows
// the decision-dominated dense-P1024 benchmark (EXPERIMENTS.md); here the
// only fork is one predictable branch per computed verdict.
//
// Why the production binding exists: under indexed stepping the engine
// already maintains exact per-partition hot state in contiguous slices
// (remaining, deadline, supply, budget, period) plus a hierarchical ready
// bitset. Snapshotting that into PartitionState structs costs an O(P)
// pointer chase per decision — the dominant term at P=4096+ where a decision
// touches a handful of partitions. bind aliases the arenas directly, once
// per System (they live as long as it does), and Pick sets only now on each
// decision.
//
// The candidate walk (search) visits the partitions once, in index order, and
// carries the loop-invariant terms of Eq. 1–2 along as a prefix fold:
//
//   - rem   = Σ_{j≤h} remaining_j (terms (b) and (d): an inactive Π_h has none)
//   - above = min_{j<h} off[j], upto = min_{j≤h} off[j] (the earliest tracked
//     arrival without and with Π_h's own stream)
//
// where off[j] = supply_j − now is the stream anchor, constant per decision.
// fold writes off[j] as the walk passes j, for the kernel's slow path; the
// rest are scalars, so a walk that stops at partition h pays O(h), never
// O(P). The prefix minimum makes the common test O(1): when the busy
// interval's opening length w0 reaches no tracked stream's first arrival,
// every interference term is zero and the run is settled before it starts
// (see fixpoint).
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
// sum), TestSearchMatchesTextbook pins the walk both bindings share to a
// textbook Algorithm 1, and the reference-policy digest suite pins it all
// end-to-end.

import (
	"timedice/internal/bitset"
	"timedice/internal/engine"
	"timedice/internal/vtime"
)

// stateView is the per-decision verdict source (see the file comment). Under
// bind the six arena slices and the ready bitset alias the engine's, never
// copied, and off and narr are policy-owned kernel scratch reused across
// decisions. Under bindSnapshot, ready, remaining, deadline and supply are the
// view's own, rebuilt from the snapshot every decision. A view keeps one
// binding for its whole life, so bindSnapshot never writes into engine
// arenas.
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

	// off[j] = supplyAt(j) − now, written by fold as the walk passes j.
	off []vtime.Duration

	// Fixpoint scratch: narr[j] is stream j's next charged arrival during the
	// current fixpoint run.
	narr []vtime.Duration
}

// bind aliases the engine's arenas: the production binding. The arenas live
// as long as their System, so Pick binds once per System and sets now on
// each decision. O(1) apart from one-time scratch growth.
func (v *stateView) bind(hot engine.Hot) {
	v.remaining = hot.Remaining
	v.budget = hot.Budget
	v.period = hot.Period
	v.deadline = hot.Deadline
	v.supply = hot.Supply
	v.recip = hot.Recip
	v.ready = hot.Ready
	n := len(hot.Remaining)
	if cap(v.off) < n {
		v.off = make([]vtime.Duration, n)
		v.narr = make([]vtime.Duration, n)
	}
	v.off = v.off[:n]
	v.narr = v.narr[:n]
}

// bindSnapshot binds the view to states taken at instant now: the reference
// binding. The ready set comes from the snapshot's own Runnable flags and the
// walk and the lottery read copies of its remaining budgets, deadlines and
// supply anchors, so nothing is read from the engine's arenas or bitset;
// verdicts run on schedFixpoint.
func (v *stateView) bindSnapshot(states []PartitionState, now vtime.Time) {
	n := len(states)
	if v.ready == nil || v.ready.Len() != n {
		v.ready = bitset.New(n)
		v.remaining = make([]vtime.Duration, n)
		v.deadline = make([]vtime.Time, n)
		v.supply = make([]vtime.Time, n)
		v.off = make([]vtime.Duration, n)
	} else {
		v.ready.Reset()
	}
	for i := range states {
		s := &states[i]
		v.remaining[i] = s.Remaining
		v.deadline[i] = s.NextReplenish
		v.supply[i] = s.NextSupply
		if s.Runnable {
			v.ready.Set(i)
		}
	}
	v.snap, v.ref, v.now = states, true, now
}

// prefix is the walk's running fold through partition h: what a level-h
// kernel test reads of the partitions at and above it.
type prefix struct {
	rem   vtime.Duration // Σ_{j≤h} remaining_j
	above vtime.Duration // min_{j<h} off[j]; Forever at h = 0
	upto  vtime.Duration // min_{j≤h} off[j]
}

// noPrefix is the fold of no partition: no demand and no tracked stream.
var noPrefix = prefix{above: vtime.Forever, upto: vtime.Forever}

// fold extends p, the fold through partition h−1, to partition h, writing
// h's stream anchor off[h] on the way.
func (v *stateView) fold(p prefix, h int) prefix {
	o := v.supplyAt(h).Sub(v.now)
	v.off[h] = o
	return prefix{rem: p.rem + v.remaining[h], above: p.upto, upto: min(p.upto, o)}
}

// refVerdict runs Algorithm 3 for partition h under an inversion of w on the
// reference binding: plain-division schedFixpoint and passHorizon over the
// snapshot. For a passing verdict, validFor is how far past now it stays
// exact. The kernel's counterpart is fixpoint plus horizonOf.
func (v *stateView) refVerdict(h int, w vtime.Duration) (ok bool, validFor vtime.Duration, cost fixCost) {
	ok, cur, deadline, cost := schedFixpoint(v.snap, h, v.now, w)
	if ok {
		validFor = passHorizon(v.snap, h, v.now, cur, deadline)
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

// fixpoint is schedFixpoint over the arena view — the Algorithm-3
// busy-interval iteration for partition h under an inversion of w — run as the
// incremental, divisionless decision kernel. p is the walk's fold through h
// (fold), which has written off[0..h].
//
// The tracked stream set is hp(Π_h), plus Π_h's own replenishment stream when
// it is inactive (its indirect interference term) — exactly the streams
// passHorizon charges. An inactive Π_h has no remaining budget, so the
// opening length is w0 = w + p.rem either way.
//
// Fast path: every term ⌈(cur−o)/T⌉₀ is zero while cur ≤ o, so when w0 is at
// or below the earliest tracked arrival (p.above, or p.upto for an inactive
// Π_h; Forever when nothing is tracked) the interference sum at cur = w0 is
// zero, the first iteration's next = w0 + 0 equals cur, and the run
// converges there. Each stream's first arrival at or after w0 is its own
// anchor o, so the minimum the kernel would record is that earliest anchor
// itself. The fast path returns exactly that — verdict, cur, deadline,
// minArr — in O(1), and charges the same one iteration and m terms
// kernelInit would have (the m terms are settled in bulk by the prefix
// minimum rather than evaluated one by one), so every counter and digest is
// identical to the kernel's.
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
func (v *stateView) fixpoint(h int, w vtime.Duration, p prefix) (ok bool, cur, deadline, minArr vtime.Duration, cost fixCost) {
	w0 := w + p.rem
	m, earliest := h, p.above // tracked streams and their earliest anchor
	if v.remaining[h] > 0 {
		deadline = v.deadline[h].Sub(v.now)
	} else {
		deadline = v.deadline[h].Add(v.period[h]).Sub(v.now)
		m = h + 1
		if !fastPathDropsOwnStream {
			earliest = p.upto
		}
	}
	if w0 > deadline {
		return false, 0, deadline, 0, cost
	}
	cost.terms = int64(m)
	if w0 <= earliest {
		cost.iters = 1
		if fixpointIterHook != nil {
			fixpointIterHook(h, w0, 0)
		}
		return true, w0, deadline, earliest, cost
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
