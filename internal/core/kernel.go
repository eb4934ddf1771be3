package core

// Algorithm 3's arithmetic, in the two forms that the two bindings of a
// decision's stateView (batch.go) run. The busy-interval fixpoint charges,
// for every tracked replenishment stream, the Eq. (1) interference term
// ⌈(cur − o)/T⌉₀ · B, and its validity horizon needs the stream's first
// arrival at or after the converged interval end. Both formulas live here
// once per form, and the forms are pinned equal:
//
//   - the plain-division reference forms (streamInterference,
//     streamNextArrival), composed by schedFixpoint/passHorizon. The
//     reference binding (bindSnapshot) runs them for the public
//     CandidateSearch, which the test-only reference policy calls on every
//     decision; SchedulabilityTest runs schedFixpoint directly. The reference deliberately keeps hardware division: it is
//     the oracle the divisionless kernel is differentially pinned against,
//     and the corrupted-reciprocal timedice_mutation mutant is caught
//     precisely because this path does not share the reciprocal constants.
//   - the divisionless kernel forms (kernelInit and the incremental advance
//     inside stateView.fixpoint), which the production binding runs and
//     which compute the identical values through vtime.Reciprocal over the
//     engine's constant SoA arenas.
//
// vtime's recip_test.go proves the two division forms agree on the entire
// int64 domain; TestViewMatchesAoS and the reference-policy differential pin
// the composed loops.

import "timedice/internal/vtime"

// fixCost tallies the work of one Algorithm-3 busy-interval run:
// fixpoint iterations and interference terms evaluated. Iterations are
// path-independent — the incremental kernel replays the reference iteration
// sequence exactly — while term counts depend on the evaluation strategy
// (the reference re-sums every stream per iteration, the kernel advances
// only the streams whose next arrival was crossed). The kernel's fast path
// charges its m opening terms even though it settles them in bulk through
// the prefix minimum of the stream anchors rather than evaluating each: that
// keeps the count identical to the kernelInit sweep it replaces.
type fixCost struct {
	iters int64
	terms int64
}

// fixpointIterHook, when non-nil, observes every busy-interval iteration of
// the incremental kernel before the convergence check: the level h, the
// current interval length cur, and the incrementally maintained interference
// sum at cur. Tests install it to assert per-iteration equality of the
// running sum against a from-scratch re-summation; production leaves it nil
// (one predictable branch per iteration).
var fixpointIterHook func(h int, cur, sum vtime.Duration)

// schedFixpoint runs the Algorithm-3 busy-interval iteration and returns the
// verdict together with the fixpoint value cur and the deadline (both
// relative to now) that passHorizon needs, plus the work tallies (iterations
// and interference terms evaluated); wrappers account for the invocation
// itself. This is the plain-division reference form — the decision kernel
// (stateView.fixpoint) is pinned against it, so it must stay naive: every
// iteration re-sums every charged stream through hardware division.
func schedFixpoint(states []PartitionState, h int, now vtime.Time, w vtime.Duration) (ok bool, cur, deadline vtime.Duration, cost fixCost) {
	s := &states[h]
	var w0 vtime.Duration = w
	if s.Active {
		w0 += s.Remaining
		deadline = s.NextReplenish.Sub(now)
	} else {
		deadline = s.NextReplenish.Add(s.Period).Sub(now)
	}
	for j := 0; j < h; j++ {
		w0 += states[j].Remaining
	}
	if w0 > deadline {
		return false, 0, deadline, cost
	}
	cur = w0
	for {
		cost.iters++
		next := w0
		for j := 0; j < h; j++ {
			o := states[j].supplyTime().Sub(now)
			next += streamInterference(cur, o, states[j].Period, states[j].Budget)
		}
		cost.terms += int64(h)
		if !s.Active {
			o := s.supplyTime().Sub(now)
			next += streamInterference(cur, o, s.Period, s.Budget)
			cost.terms++
		}
		if next > deadline {
			return false, cur, deadline, cost
		}
		if next == cur {
			return true, cur, deadline, cost
		}
		cur = next
	}
}

// passHorizon computes how far past now a passing verdict stays exact: the
// minimum of the deadline slack (deadline − cur) and, over every stream the
// test charges (hp(Π_h), plus Π_h's own when inactive), the gap from the
// busy-interval end cur to that stream's next arrival at or after cur.
func passHorizon(states []PartitionState, h int, now vtime.Time, cur, deadline vtime.Duration) vtime.Duration {
	horizon := deadline - cur
	for j := 0; j <= h; j++ {
		if j == h && states[h].Active {
			break
		}
		st := &states[j]
		o := st.supplyTime().Sub(now)
		arr := streamNextArrival(cur, o, st.Period)
		if gap := arr - cur; gap < horizon {
			horizon = gap
		}
	}
	return horizon
}

// streamInterference is the Eq. (1) interference term of one replenishment
// stream anchored at offset o (relative to now) with period T and budget B:
// the number of replenishments strictly inside the busy interval [0, cur),
// times the budget each delivers.
func streamInterference(cur, o, period, budget vtime.Duration) vtime.Duration {
	return vtime.Duration(vtime.CeilDiv(cur-o, period)) * budget
}

// streamNextArrival is the stream's first replenishment at or after cur:
// arrivals land at o + k·T and CeilDiv counts those strictly before cur.
func streamNextArrival(cur, o, period vtime.Duration) vtime.Duration {
	return o + vtime.Duration(vtime.CeilDiv(cur-o, period))*period
}

// kernelInit is the unrolled SoA sweep that opens one kernel fixpoint run:
// for every tracked stream j it derives — divisionlessly — the number of
// replenishments strictly before cur, accumulates the interference sum, and
// records the stream's next arrival at or after cur in narr. It returns the
// sum and the minimum recorded arrival (vtime.Forever when no stream is
// tracked). The four slices must share the same length as off (the caller
// reslices them so the compiler drops the bounds checks); the 4-wide
// unrolling keeps four independent multiply chains in flight per trip, which
// is where the reciprocal's pipelining pays off over a divide-per-term loop.
func kernelInit(off, per, bud []vtime.Duration, rec []vtime.Reciprocal, narr []vtime.Duration, cur vtime.Duration) (sum, minArr vtime.Duration) {
	minArr = vtime.Forever
	j := 0
	for ; j+4 <= len(off); j += 4 {
		c0 := vtime.Duration(rec[j].CeilDiv(cur - off[j]))
		c1 := vtime.Duration(rec[j+1].CeilDiv(cur - off[j+1]))
		c2 := vtime.Duration(rec[j+2].CeilDiv(cur - off[j+2]))
		c3 := vtime.Duration(rec[j+3].CeilDiv(cur - off[j+3]))
		sum += c0*bud[j] + c1*bud[j+1] + c2*bud[j+2] + c3*bud[j+3]
		a0 := off[j] + c0*per[j]
		a1 := off[j+1] + c1*per[j+1]
		a2 := off[j+2] + c2*per[j+2]
		a3 := off[j+3] + c3*per[j+3]
		narr[j], narr[j+1], narr[j+2], narr[j+3] = a0, a1, a2, a3
		if a1 < a0 {
			a0 = a1
		}
		if a3 < a2 {
			a2 = a3
		}
		if a2 < a0 {
			a0 = a2
		}
		if a0 < minArr {
			minArr = a0
		}
	}
	for ; j < len(off); j++ {
		c := vtime.Duration(rec[j].CeilDiv(cur - off[j]))
		sum += c * bud[j]
		a := off[j] + c*per[j]
		narr[j] = a
		if a < minArr {
			minArr = a
		}
	}
	return sum, minArr
}
