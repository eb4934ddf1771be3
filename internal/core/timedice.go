// Package core implements the TIMEDICE algorithm, the paper's primary
// contribution (§IV): schedulability-preserving randomization of a
// priority-based partition schedule by bounded random priority inversion.
//
// At every scheduling decision point the algorithm
//
//  1. (candidate search, Algorithms 1–2) walks the active partitions in
//     decreasing priority order and admits Π_(i) to the candidate list iff a
//     priority inversion of one quantum by Π_(i) would still let every
//     higher-priority partition — including currently inactive ones, which
//     can suffer indirect interference (Fig. 8) — meet its budget deadline,
//     as established by the level-Π_h busy-interval test (Algorithm 3,
//     Eqs. 1–3); and
//  2. (random selection) picks one candidate, either uniformly (TimeDiceU)
//     or weighted by remaining utilization u_{i,t} = B_i(t)/(d_{i,t}−t)
//     (TimeDiceW, justified by Theorem 1). CPU idling is itself a candidate
//     when even the idle "partition" passes the candidacy test.
//
// The search performs at most one schedulability test per partition per
// decision, so a decision costs O(|Π|) tests (Fig. 9's incremental rule).
//
// The package exposes both a pure functional core operating on
// PartitionState snapshots (unit- and property-testable in isolation, and the
// reference the production decision path is pinned against) and a Policy
// adapter satisfying engine.GlobalPolicy.
package core

import (
	"fmt"

	"timedice/internal/engine"
	"timedice/internal/partition"
	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// DefaultQuantum is the paper's MIN_INV_SIZE: the length of one random
// priority inversion (1 ms in the LITMUS^RT implementation, §V-A).
const DefaultQuantum = vtime.Millisecond

// PartitionState is the per-partition snapshot the candidate search reads at
// a decision point. States are indexed in decreasing priority order over ALL
// partitions of the system, active or not.
type PartitionState struct {
	Budget    vtime.Duration // B_i
	Period    vtime.Duration // T_i
	Remaining vtime.Duration // B_i(t); 0 when inactive
	// NextReplenish is r_{i,t} + T_i: the next replenishment instant, which
	// is also the current budget deadline d_{i,t}.
	NextReplenish vtime.Time
	// NextSupply is the earliest future instant at which the server can gain
	// budget. Periodic servers (polling, deferrable) replenish exactly at
	// NextReplenish, but a sporadic server's queued chunks may land before
	// the period boundary; interference terms must use this earlier instant
	// or the test under-counts preemption and grants unsafe inversions. The
	// zero value means "equal to NextReplenish".
	NextSupply vtime.Time
	// Active is the paper's activity predicate: non-zero remaining budget.
	Active bool
	// Runnable marks partitions eligible for selection (active with ready
	// work). Only runnable partitions enter the candidate list; all
	// partitions participate in schedulability tests.
	Runnable bool
}

// supplyTime resolves the earliest-future-replenishment instant, defaulting
// to NextReplenish for states that never set NextSupply.
func (s *PartitionState) supplyTime() vtime.Time {
	if s.NextSupply != 0 {
		return s.NextSupply
	}
	return s.NextReplenish
}

// SchedulabilityTest is Algorithm 3: it reports whether partition h (an index
// into states) would still meet its deadline if a lower-priority partition
// executed for w starting at now.
//
// For an active Π_h the busy interval starts with the inversion (a), the
// remaining budgets of hp(Π_h) (b) and of Π_h itself (d), and is extended by
// the future replenishments of hp(Π_h) that arrive inside it (c), per
// Eqs. (1)–(2); Π_h is schedulable iff the interval ends by its next
// replenishment (Eq. 3). For an inactive Π_h the test guards the upcoming
// execution (deadline r_{h,t}+2T_h) and folds Π_h's own future arrivals into
// the interference, per the indirect-interference extension.
//
// testsRun, when non-nil, is incremented once (for overhead accounting).
//
// The busy-interval iteration lives in schedFixpoint (kernel.go), which the
// reference binding of a decision's stateView also runs.
func SchedulabilityTest(states []PartitionState, h int, now vtime.Time, w vtime.Duration, testsRun *int64) bool {
	if testsRun != nil {
		*testsRun++
	}
	ok, _, _, _ := schedFixpoint(states, h, now, w)
	return ok
}

// SearchResult is the outcome of one candidate search.
type SearchResult struct {
	// Candidates are indices into the states slice, in decreasing priority
	// order. Empty iff no partition is runnable.
	Candidates []int
	// IdleOK reports whether idling the CPU passed the candidacy test and is
	// a selectable option.
	IdleOK bool
	// Tests is the number of schedulability tests performed.
	Tests int64
	// FixpointIters and InterferenceTerms tally the Algorithm-3 work behind
	// those tests: busy-interval iterations run, and interference terms
	// evaluated. Iteration counts are path-independent — the batched decision
	// kernel replays the reference's iteration sequence exactly — while term
	// counts depend on the evaluation strategy (the reference re-sums every
	// charged stream per iteration; the kernel advances only the streams
	// whose next arrival was crossed). A kernel run the fast path settles
	// still counts its m opening terms: they are settled in bulk by the
	// prefix minimum of the stream anchors instead of one by one, and
	// counting them keeps InterferenceTerms identical to the full sweep.
	FixpointIters     int64
	InterferenceTerms int64
}

// CandidateSearch is Step 1 of Algorithm 1. states covers every partition in
// decreasing priority order; the search walks the runnable ones, admitting
// each while every not-yet-examined higher-priority partition passes the
// schedulability test, and stopping at the first failure (a failure for
// Π_(i) implies failure for all lower-priority candidates). If every
// partition passes, CPU idling becomes an additional candidate.
//
// The scratch slice, when non-nil, is reused for the candidate list. This is
// the reference search (see stateView); Policy keeps its own views and
// allocates nothing per decision.
func CandidateSearch(states []PartitionState, now vtime.Time, w vtime.Duration, scratch []int) SearchResult {
	var ref stateView
	ref.bindSnapshot(states, now)
	return search(&ref, w, scratch, nil)
}

// search is the candidate walk of CandidateSearch over either binding of a
// stateView (batch.go), with an optional verdict cache: every
// schedulability test goes through testVerdict, which serves still-valid
// memoized verdicts without recomputation. Policy always passes its cache;
// CandidateSearch passes nil, which makes it the uncached reference.
func search(v *stateView, w vtime.Duration, scratch []int, cache *Cache) SearchResult {
	res := SearchResult{Candidates: scratch[:0]}
	examined := 0 // partitions [0, examined) are covered
	failed := false
	v.ready.ForEachSet(func(i int) bool {
		// Π_(1) is admitted untested: its execution causes no priority
		// inversion. Every later candidate first covers the partitions
		// between it and the previous one.
		if len(res.Candidates) > 0 {
			for ; examined < i; examined++ {
				if !testVerdict(v, examined, w, &res, cache) {
					failed = true
					return false
				}
			}
		}
		res.Candidates = append(res.Candidates, i)
		examined = i
		return true
	})
	if failed || len(res.Candidates) == 0 {
		// A failed test ends the walk, and with nothing runnable the CPU
		// idles without a lottery: idling is no candidate either way.
		return res
	}
	// Idle candidacy: the imaginary Π_IDLE has the lowest priority, so every
	// remaining partition must pass.
	for n := v.ready.Len(); examined < n; examined++ {
		if !testVerdict(v, examined, w, &res, cache) {
			return res
		}
	}
	res.IdleOK = true
	return res
}

// SelectionMode chooses the Step-2 randomization of Algorithm 1.
type SelectionMode int

const (
	// SelectWeighted assigns each candidate a lottery weight proportional to
	// its remaining utilization u_{i,t}, and the idle option the leftover
	// 1−Σu (TimeDiceW, the paper's default).
	SelectWeighted SelectionMode = iota + 1
	// SelectUniform gives every candidate (and the idle option) an equal
	// chance (TimeDiceU).
	SelectUniform
)

// String returns the mode's name.
func (m SelectionMode) String() string {
	switch m {
	case SelectWeighted:
		return "weighted"
	case SelectUniform:
		return "uniform"
	default:
		return fmt.Sprintf("SelectionMode(%d)", int(m))
	}
}

// IdleChoice is the sentinel Select returns when the idle option wins.
const IdleChoice = -1

// Select is Step 2 of Algorithm 1: it picks one element of res.Candidates
// (returning its states index) or IdleChoice. weights is a reusable scratch
// slice. It panics if res has neither candidates nor idle (the caller idles
// without selection in that case).
func Select(states []PartitionState, res SearchResult, now vtime.Time, mode SelectionMode, rnd *rng.Rand, weights []float64) int {
	var ref stateView
	ref.bindSnapshot(states, now)
	return lottery(&ref, res, mode, rnd, weights)
}

// lottery is Select over either binding of a stateView.
func lottery(v *stateView, res SearchResult, mode SelectionMode, rnd *rng.Rand, weights []float64) int {
	n := len(res.Candidates)
	options := n
	if res.IdleOK {
		options++
	}
	if options == 0 {
		panic("core: Select with no options")
	}
	if mode == SelectUniform {
		k := rnd.Intn(options)
		if k == n {
			return IdleChoice
		}
		return res.Candidates[k]
	}
	// Weighted: u_{i,t} = B_i(t)/(d_{i,t}-t); idle gets 1-Σu (clamped).
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

// Stats aggregates per-policy counters for the overhead evaluation
// (Table IV, Fig. 17).
type Stats struct {
	Decisions     int64
	SchedTests    int64 // Algorithm-3 computations actually performed
	CacheHits     int64 // test invocations served by the verdict cache
	CacheMisses   int64 // cache consultations that computed fresh (hits+misses = lookups)
	SearchReuses  int64 // decisions whose whole candidate search was reused
	CandidateSum  int64 // Σ candidate-list sizes, for the mean
	IdleEligible  int64 // decisions where idling was a candidate
	IdleSelected  int64
	InversionsWon int64 // decisions won by a non-top-priority candidate
}

// Policy adapts the TimeDice algorithm to the simulation engine.
type Policy struct {
	quantum vtime.Duration
	mode    SelectionMode
	rnd     *rng.Rand

	stats   Stats
	view    stateView // bound to the engine's arenas every decision
	cache   Cache
	scratch []int
	weights []float64

	// Decision-level search reuse: while no partition has been stamped since
	// the last full search (searchStamp) and now is within the minimum
	// validity horizon of every verdict that search consulted (searchValid),
	// the candidate list in scratch and searchIdle are exactly what a fresh
	// search would produce, so Pick skips the search and goes straight to
	// selection on live weights.
	searchInit  bool
	searchIdle  bool
	searchStamp uint64
	searchValid vtime.Time
	searchLen   int // partition count the stored search covered

	lastCandidates int64
	lastTests      int64
}

var (
	_ engine.GlobalPolicy     = (*Policy)(nil)
	_ engine.DecisionDetailer = (*Policy)(nil)
	_ engine.PolicyForker     = (*Policy)(nil)
)

// Option configures a Policy.
type Option func(*Policy)

// WithQuantum overrides MIN_INV_SIZE (default 1 ms).
func WithQuantum(q vtime.Duration) Option {
	return func(p *Policy) { p.quantum = q }
}

// WithSelection sets the Step-2 randomization mode (default SelectWeighted).
func WithSelection(m SelectionMode) Option {
	return func(p *Policy) { p.mode = m }
}

// WithRand gives the policy its own random stream; by default it uses the
// engine's system stream.
func WithRand(r *rng.Rand) Option {
	return func(p *Policy) { p.rnd = r }
}

// NewPolicy builds a TimeDice policy (TimeDiceW unless configured otherwise).
func NewPolicy(opts ...Option) *Policy {
	p := &Policy{quantum: DefaultQuantum, mode: SelectWeighted}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements engine.GlobalPolicy.
func (p *Policy) Name() string {
	if p.mode == SelectUniform {
		return "TimeDiceU"
	}
	return "TimeDiceW"
}

// Quantum implements engine.GlobalPolicy.
func (p *Policy) Quantum() vtime.Duration { return p.quantum }

// Stats returns the accumulated counters.
func (p *Policy) Stats() Stats {
	st := p.stats
	st.CacheHits = p.cache.Hits()
	st.CacheMisses = p.cache.Misses()
	return st
}

// DecisionDetail implements engine.DecisionDetailer: the candidate-set size
// and schedulability tests of the most recent Pick.
func (p *Policy) DecisionDetail() (candidates, tests int64) {
	return p.lastCandidates, p.lastTests
}

// ResetStats zeroes the counters.
func (p *Policy) ResetStats() {
	p.stats = Stats{}
	p.cache.hits = 0
	p.cache.misses = 0
}

// Reset restores the policy to its initial state — counters zeroed, every
// cached verdict dropped, scratch capacity retained — so a reused policy is
// indistinguishable from a freshly constructed one. The engine's
// System.Reset calls it automatically; the policy's random stream (WithRand)
// is owned by the caller and must be reseeded separately.
func (p *Policy) Reset() {
	p.ResetStats()
	p.lastCandidates, p.lastTests = 0, 0
	p.searchInit = false
	p.searchIdle = false
	p.searchStamp = 0
	p.searchValid = 0
	p.searchLen = 0
	p.cache.Reset()
}

// ForkPolicy implements engine.PolicyForker: an independent policy with the
// same configuration (quantum, selection mode) and fresh decision state, plus
// a cloned position of the private random stream when WithRand gave the
// policy one. Starting the fork with an empty verdict cache and no reusable
// search is digest-exact — the reference-policy differential pins both
// equivalent to a from-scratch search — so a fork schedules identically to
// its parent.
func (p *Policy) ForkPolicy() engine.GlobalPolicy {
	np := &Policy{quantum: p.quantum, mode: p.mode}
	if p.rnd != nil {
		np.rnd = p.rnd.Clone()
	}
	return np
}

// Snapshot fills states (reusing its backing array) with the current view of
// the system's partitions in priority order, read from the live servers and
// local schedulers rather than the engine's arenas — the input of the
// reference search (CandidateSearch) that tests pin Policy against.
func Snapshot(sys *engine.System, states []PartitionState) []PartitionState {
	states = states[:0]
	for _, part := range sys.Partitions {
		srv := &part.Server
		states = append(states, PartitionState{
			Budget:        srv.Budget(),
			Period:        srv.Period(),
			Remaining:     srv.Remaining(),
			NextReplenish: srv.Deadline(),
			NextSupply:    srv.NextReplenish(),
			Active:        srv.Active(),
			Runnable:      part.Runnable(),
		})
	}
	return states
}

// searchReusable reports whether the previous decision's candidate search is
// still exact at now, and returns the current maximum state stamp either way.
// With the timedice_mutation cache mutant on, the stamp comparison is
// skipped, mirroring the entry-level mutation (see mutation_on.go).
func (p *Policy) searchReusable(sys *engine.System, now vtime.Time) (bool, uint64) {
	// Epoch is by construction the maximum of the per-partition stamps, so
	// the staleness check is O(1) instead of an O(P) scan.
	m := sys.Epoch()
	if !p.searchInit || p.searchLen != len(sys.Partitions) {
		return false, m
	}
	return (cacheIgnoresInvalidation || m == p.searchStamp) && now <= p.searchValid, m
}

// Pick implements engine.GlobalPolicy: one full TimeDice decision — reuse or
// rerun the candidate search, then draw. The view is bound to the engine's
// arenas and ready bitset (System.Hot), tests go through the verdict cache
// to the decision kernel, and the lottery reads the same arenas. The
// reference-policy differential in internal/gen pins the schedule and the
// decision tallies to a policy that snapshots the live servers and runs the
// uncached plain-division CandidateSearch and Select on every decision, and
// hence the engine's arena publication, its ready bitset, the cache, search
// reuse and the kernel to the reference.
func (p *Policy) Pick(sys *engine.System, now vtime.Time) *partition.Partition {
	rnd := p.rnd
	if rnd == nil {
		rnd = sys.Rand
	}
	p.stats.Decisions++
	v := &p.view
	v.bind(sys.Hot(), now)
	n := len(sys.Partitions)

	var res SearchResult
	if reuse, maxStamp := p.searchReusable(sys, now); reuse {
		// Verdicts and runnable flags are unchanged by construction; the
		// lottery reads the candidates' draining budgets from the fresh
		// binding.
		res = SearchResult{Candidates: p.scratch, IdleOK: p.searchIdle}
		p.stats.SearchReuses++
	} else {
		p.cache.begin(sys.StateStamps(), n)
		res = search(v, p.quantum, p.scratch, &p.cache)
		p.scratch = res.Candidates
		p.searchInit = true
		p.searchIdle = res.IdleOK
		p.searchStamp = maxStamp
		p.searchValid = p.cache.searchValid
		p.searchLen = n
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
	// lottery trims weights to length zero and appends at most one entry per
	// candidate plus the idle option; holding capacity for that here keeps
	// the whole decision allocation-free.
	if cap(p.weights) < n+1 {
		p.weights = make([]float64, 0, n+1)
	}
	choice := lottery(v, res, p.mode, rnd, p.weights)
	if choice == IdleChoice {
		p.stats.IdleSelected++
		return nil
	}
	if choice != res.Candidates[0] {
		p.stats.InversionsWon++
	}
	return sys.Partitions[choice]
}
