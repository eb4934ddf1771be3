package core

// This file is the batched Algorithm-3 path: the same candidate search,
// busy-interval fixpoint, horizon computation, and lottery selection as
// timedice.go, re-expressed over the engine's struct-of-arrays hot arenas
// (engine.Hot) instead of a []PartitionState snapshot.
//
// Why it exists: under indexed stepping the engine already maintains exact
// per-partition hot state in contiguous slices (remaining, deadline, supply,
// budget, period) plus a hierarchical ready bitset. Snapshotting that into
// PartitionState structs costs an O(P) pointer chase per decision — the
// dominant term at P=4096+ where a decision touches a handful of partitions.
// The view path aliases the arenas directly (bind is O(1)), walks runnable
// partitions through the bitset, and hoists the loop-invariant terms of
// Eq. 1–2 out of the fixpoint iteration:
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
// Exactness contract: every arithmetic step computes the same values as
// schedFixpoint/passHorizon/Select (including the NextSupply==0 fallback and
// the float64 lottery weights), so verdicts, candidate lists, and random
// draws are bit-identical to the AoS reference, which deliberately keeps
// plain division as the oracle. TestViewMatchesAoS pins that per function
// (including per-iteration equality of the incremental sum); the
// indexed-vs-scan digest suite pins it end-to-end, because ScanStepping runs
// keep using the AoS path against live servers.

import (
	"timedice/internal/bitset"
	"timedice/internal/engine"
	"timedice/internal/partition"
	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// stateView is the per-decision view over the engine's hot arenas. The six
// arena slices and the ready bitset are aliased, never copied; off, remPrefix,
// minOff, and narr are policy-owned scratch reused across decisions.
type stateView struct {
	remaining []vtime.Duration
	budget    []vtime.Duration
	period    []vtime.Duration
	deadline  []vtime.Time
	supply    []vtime.Time
	recip     []vtime.Reciprocal
	ready     *bitset.Hier

	now vtime.Time

	// Hoisted per-decision terms, valid for indices < hoistN.
	off       []vtime.Duration // supplyAt(j) − now
	remPrefix []vtime.Duration // Σ_{j<h} remaining[j]
	minOff    []vtime.Duration // min_{j≤h} off[j]
	hoistN    int

	// Fixpoint scratch: narr[j] is stream j's next charged arrival during the
	// current fixpoint run.
	narr []vtime.Duration
}

// bind aliases the arena view for one decision at instant now. O(1) apart
// from one-time scratch growth.
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

func (v *stateView) n() int { return len(v.remaining) }

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

// testVerdict is the cache-aware test front end over the view, sharing Cache
// (and therefore verdict validity and hit accounting) with the AoS path. The
// fixpoint's work tallies accumulate into res.
func (v *stateView) testVerdict(h int, w vtime.Duration, res *SearchResult, cache *Cache) bool {
	if cache != nil {
		if ok, hit := cache.lookup(h, v.now); hit {
			return ok
		}
	}
	res.Tests++
	v.extend(h)
	ok, cur, deadline, minArr, cost := v.fixpoint(h, w)
	res.FixpointIters += cost.iters
	res.InterferenceTerms += cost.terms
	if cache != nil {
		validUntil := vtime.Infinity // FAIL holds for the rest of the epoch
		if ok {
			validUntil = v.now.Add(horizonOf(cur, deadline, minArr))
		}
		cache.store(h, ok, validUntil)
	}
	return ok
}

// search is candidateSearch over the view. Instead of scanning all P states
// for the Runnable flag, it walks the set bits of the ready set — O(occupied
// groups + runnable) — and runs the same incremental coverage of the
// partitions between candidates.
func (v *stateView) search(w vtime.Duration, scratch []int, cache *Cache) SearchResult {
	res := SearchResult{Candidates: scratch[:0]}
	examined := 0
	first := true
	failed := false
	v.ready.ForEachSet(func(i int) bool {
		if first {
			res.Candidates = append(res.Candidates, i)
			if examined < i {
				examined = i
			}
			first = false
			return true
		}
		for h := examined; h < i; h++ {
			if !v.testVerdict(h, w, &res, cache) {
				failed = true
				return false
			}
			examined = h + 1
		}
		res.Candidates = append(res.Candidates, i)
		if examined < i {
			examined = i
		}
		return true
	})
	if failed || first {
		return res
	}
	idleOK := true
	for h := examined; h < v.n(); h++ {
		if !v.testVerdict(h, w, &res, cache) {
			idleOK = false
			break
		}
		examined = h + 1
	}
	res.IdleOK = idleOK
	return res
}

// selectFrom is Select over the view: identical option counting, weight
// arithmetic, and random-stream consumption, reading the candidates' draining
// budgets and deadlines straight from the arenas (which are live, so reused
// searches need no per-candidate refresh).
func (v *stateView) selectFrom(res SearchResult, mode SelectionMode, rnd *rng.Rand, weights []float64) int {
	n := len(res.Candidates)
	options := n
	if res.IdleOK {
		options++
	}
	if options == 0 {
		panic("core: selectFrom with no options")
	}
	if mode == SelectUniform {
		k := rnd.Intn(options)
		if k == n {
			return IdleChoice
		}
		return res.Candidates[k]
	}
	weights = weights[:0]
	var sum float64
	for _, i := range res.Candidates {
		den := v.deadline[i].Sub(v.now)
		var u float64
		if den > 0 {
			u = float64(v.remaining[i]) / float64(den)
		}
		weights = append(weights, u)
		sum += u
	}
	if res.IdleOK {
		idleW := 1 - sum
		if idleW < 0 {
			idleW = 0
		}
		weights = append(weights, idleW)
	}
	k := rnd.WeightedIndex(weights)
	if k == n {
		return IdleChoice
	}
	return res.Candidates[k]
}

// pickView is Pick's decision body under indexed stepping: alias the arenas,
// reuse or rerun the search, select. The search-reuse fast path is even
// cheaper than the AoS one — the arenas are live, so the candidates'
// remaining/deadline values selection reads need no refresh at all.
func (p *Policy) pickView(sys *engine.System, now vtime.Time, rnd *rng.Rand) *partition.Partition {
	v := &p.view
	v.bind(sys.Hot(), now)
	var res SearchResult
	if reuse, maxStamp := p.searchReusable(sys, now); reuse {
		res = SearchResult{Candidates: p.scratch, IdleOK: p.searchIdle}
		p.stats.SearchReuses++
	} else {
		if p.cache != nil {
			p.cache.begin(sys.StateStamps(), v.n())
		}
		res = v.search(p.quantum, p.scratch, p.cache)
		p.scratch = res.Candidates
		if p.cache != nil {
			p.searchInit = true
			p.searchIdle = res.IdleOK
			p.searchStamp = maxStamp
			p.searchValid = p.cache.searchValid
			p.searchLen = v.n()
		}
	}
	p.stats.SchedTests += res.Tests
	sys.Counters.FixpointIters += res.FixpointIters
	sys.Counters.InterferenceTerms += res.InterferenceTerms
	p.stats.CandidateSum += int64(len(res.Candidates))
	p.lastCandidates, p.lastTests = int64(len(res.Candidates)), res.Tests
	if res.IdleOK {
		p.stats.IdleEligible++
	}
	if len(res.Candidates) == 0 {
		return nil
	}
	if cap(p.weights) < v.n()+1 {
		p.weights = make([]float64, 0, v.n()+1)
	}
	choice := v.selectFrom(res, p.mode, rnd, p.weights)
	if choice == IdleChoice {
		p.stats.IdleSelected++
		return nil
	}
	if choice != res.Candidates[0] {
		p.stats.InversionsWon++
	}
	return sys.Partitions[choice]
}
