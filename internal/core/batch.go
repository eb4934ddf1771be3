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
// where off[j] = supply_j − now is the stream anchor (anchor), constant per
// decision. The walk writes off[j] as it passes j, for the kernel; the rest
// are scalars, so a walk that stops at partition h pays O(h), never O(P).
// The prefix minimum makes the common test O(1): when the busy interval's
// opening length w0 reaches no tracked stream's first arrival, every
// interference term is zero and the run is settled before it starts.
//
// Where the O(1) exits live: fixpoint is two halves. Its front, open, holds
// the run's opening and both O(1) exits — the FAIL exit when w0 already
// passes the deadline, and the settled run just described — and is small
// enough that the compiler inlines it into the walk's inner loop. The
// kernel, out of line, runs whatever open leaves unsettled; the walk calls
// it from outside its inner loop, with the opening open computed, so the
// loop that serves almost every test (dense-P1024 runs one iteration per
// test) makes no call and spills nothing around one. fixpoint is open
// then kernel, for tests and benchmarks: the walk and fixpoint compose the
// same two halves, so there is one definition of a verdict.
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
// decisions. Under bindSnapshot, ready, remaining, period, deadline and
// supply are the view's own, rebuilt from the snapshot every decision. A
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

	// off[j] = anchor(supply[j], deadline[j], now), written by the walk as
	// it passes j.
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
// walk and the lottery read copies of its remaining budgets, periods,
// deadlines and supply anchors, so nothing is read from the engine's arenas
// or bitset; verdicts run on schedFixpoint.
func (v *stateView) bindSnapshot(states []PartitionState, now vtime.Time) {
	n := len(states)
	if v.ready == nil || v.ready.Len() != n {
		v.ready = bitset.New(n)
		v.remaining = make([]vtime.Duration, n)
		v.period = make([]vtime.Duration, n)
		v.deadline = make([]vtime.Time, n)
		v.supply = make([]vtime.Time, n)
		v.off = make([]vtime.Duration, n)
	} else {
		v.ready.Reset()
	}
	for i := range states {
		s := &states[i]
		v.remaining[i] = s.Remaining
		v.period[i] = s.Period
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

// fold extends p, the fold through partition h−1, by partition h: its
// remaining budget rem and its stream anchor o (anchor). The walk writes o
// to off[h] as it folds h, for the kernel.
func (p prefix) fold(rem, o vtime.Duration) prefix {
	return prefix{rem: p.rem + rem, above: p.upto, upto: min(p.upto, o)}
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

// anchor is a partition's stream anchor off[j] = supply − now, where supply
// mirrors PartitionState.supplyTime: the earliest future budget gain,
// defaulting to the replenishment deadline when the supply anchor is unset.
func anchor(supply, deadline, now vtime.Time) vtime.Duration {
	if supply == 0 {
		supply = deadline
	}
	return supply.Sub(now)
}

// fixpoint is schedFixpoint over the arena view — the Algorithm-3
// busy-interval iteration for partition h under an inversion of w — run as the
// incremental, divisionless decision kernel. p is the walk's fold through h,
// and off[0..h] hold the anchors it folded. It is the two halves the walk
// runs: open, which settles most runs in O(1), then kernel for the rest.
func (v *stateView) fixpoint(h int, w vtime.Duration, p prefix) (ok bool, cur, deadline, minArr vtime.Duration, cost fixCost) {
	ok, cur, deadline, minArr, iters, terms, settled := open(h, w+p.rem, p, v.remaining[h] > 0, v.deadline[h], v.period[h], v.now)
	if settled {
		return ok, cur, deadline, minArr, fixCost{iters, terms}
	}
	ok, cur, minArr, cost = v.kernel(cur, deadline, h, terms)
	return ok, cur, deadline, minArr, cost
}

// open is the front of fixpoint for level h: the run's opening and its two
// O(1) exits, which end almost every test. It takes the opening length w0,
// the fold p through h, and Π_h's own values (active: B_h(t) > 0; its
// deadline d and period) rather than the view: so it stays inside the
// compiler's inlining budget (`go build -gcflags=-m ./internal/core` reports
// "can inline open"), and the walk runs it with no call and no spilled loop
// state.
//
// The tracked stream set is hp(Π_h), plus Π_h's own replenishment stream when
// it is inactive (its indirect interference term) — exactly the streams
// passHorizon charges, m of them. An inactive Π_h has no remaining budget, so
// the opening length is w0 = w + p.rem either way.
//
// FAIL exit: when w0 already passes the deadline, no iteration runs and
// nothing is charged.
//
// Fast path: every term ⌈(cur−o)/T⌉₀ is zero while cur ≤ o, so when w0 is at
// or below the earliest tracked arrival (p.above, or p.upto for an inactive
// Π_h; Forever when nothing is tracked) the interference sum at cur = w0 is
// zero, the first iteration's next = w0 + 0 equals cur, and the run
// converges there. Each stream's first arrival at or after w0 is its own
// anchor o, so the minimum the kernel would record is that earliest anchor
// itself. The fast path returns exactly that — verdict, cur, deadline,
// minArr — and charges the same one iteration and m terms kernelInit would
// have (the m terms are settled in bulk by the prefix minimum rather than
// evaluated one by one), so every counter and digest is identical to the
// kernel's. While fixpointIterHook observes iterations, open leaves even
// such a run to the kernel, which replays that one iteration (sum 0) and
// reports it to the hook: calling the hook here would cost open its
// inlining.
//
// settled is false when the run needs the kernel; cur is then w0 and terms
// the tracked stream count m, the kernel's inputs.
func open(h int, w0 vtime.Duration, p prefix, active bool, d vtime.Time, period vtime.Duration, now vtime.Time) (ok bool, cur, deadline, minArr vtime.Duration, iters, terms int64, settled bool) {
	cur, minArr, terms = w0, p.above, int64(h)
	if !active {
		terms, d = terms+1, d.Add(period)
		if !fastPathDropsOwnStream {
			minArr = p.upto
		}
	}
	deadline = d.Sub(now)
	if settled = cur > deadline; settled {
		cur, terms = 0, 0
		return
	}
	if cur <= minArr && fixpointIterHook == nil {
		ok, settled, iters = true, true, 1
	}
	return
}

// kernel runs the busy-interval iteration of a run open left unsettled,
// from its opening length w0, relative deadline and m tracked streams.
//
// kernelInit opens the run at cur = w0 with one divisionless sweep,
// leaving narr[j] = the first arrival of stream j at or after cur. Each
// subsequent iteration exploits that cur only grows: streams whose recorded
// arrival is still at or beyond the new cur contribute no new
// replenishments, so their count, sum share, and arrival carry over
// untouched, and the rescan (guarded by the running minimum arrival)
// advances only the crossed ones. The running sum therefore always equals
// the reference's from-scratch Σ ⌈(cur−o)/T⌉₀·B — in exact integers, hence
// bit-for-bit in int64 — and the iteration sequence (and so the verdict and
// converged cur) replays the reference exactly. At convergence narr holds
// precisely the arrivals passHorizon recomputes; their minimum is returned
// in minArr for horizonOf.
func (v *stateView) kernel(w0, deadline vtime.Duration, h int, m int64) (ok bool, cur, minArr vtime.Duration, cost fixCost) {
	cost.terms = m
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
			return false, cur, 0, cost
		}
		if next == cur {
			return true, cur, minArr, cost
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
