package core

import (
	"timedice/internal/vtime"
)

// This file implements the incremental schedulability-test cache: the Fig. 9
// observation taken one step further. A verdict computed by Algorithm 3 at
// decision time t stays exactly reproducible for a computable span of virtual
// time, so Pick can reuse it instead of re-running the busy-interval fixpoint,
// provided nothing discontinuous happened to the partitions it reads.
//
// Soundness (and exactness — a cached run must produce the byte-identical
// schedule of an uncached one, pinned differentially against the simfuzz
// corpus by comparing Policy with a test-only reference policy that runs the
// uncached CandidateSearch on every decision):
//
// The verdict for Π_h reads only partitions 0..h: budgets B_j and periods T_j
// (constants), remaining budgets B_j(t), replenishment-stream anchors
// (NextSupply/NextReplenish), the deadline, and Π_h's activity flag. The
// engine stamps a partition whenever one of those changes discontinuously —
// job release/completion, budget depletion, replenishment delivery, a silent
// period-boundary advance, or a sporadic server scheduling a future chunk.
// Between stamps the only evolution is the passage of time: remaining budgets
// decrease by at most the elapsed δ (execution), and every anchor and deadline
// is constant in absolute time.
//
// Write the test at time t as the least fixpoint E of
//
//	E = t + w + R_h(t) + Σ_j B_j · N_j(E)
//
// (absolute form of Eqs. 1–2), where R_h(t) is the sum of remaining budgets
// and N_j(E) counts stream arrivals strictly before E. PASS ⇔ E ≤ d.
//
//   - FAIL is valid for the rest of the epoch: at t' = t+δ the base term
//     t' + R_h(t') ≥ t + R_h(t) (execution consumes at most δ of budget per
//     δ of time), so the new fixpoint E' ≥ E > d.
//   - PASS is valid while now ≤ t + min(d_rel, ρ_next) − E_rel: as long as
//     the interval end E+δ neither passes the deadline nor captures a stream
//     arrival that E did not (ρ_next is the earliest arrival ≥ E among the
//     streams the test charges), E+δ is a fixpoint of the shifted equation
//     and the verdict is unchanged.
//
// Invalidation is per-partition: a stamp on Π_j stales the cached verdicts of
// every Π_h with h ≥ j and leaves h < j untouched, tracked with a prefix-max
// over the engine's stamp vector.
//
// The cache sits behind testVerdict, the one cache-aware test front end, which
// both bindings of a decision's stateView share (batch.go). Policy owns one
// Cache for its whole life and always consults it; the public CandidateSearch
// passes none. The cache is keyed by partition index and the engine's stamps,
// never by the binding that computed a verdict, so TestViewMatchesAoS can
// require two caches fed the same stamps to make the same hits and misses
// under either binding.

// verdictEntry is one memoized Algorithm-3 outcome.
type verdictEntry struct {
	stamp      uint64     // prefix-max state stamp the verdict was computed under
	validUntil vtime.Time // last instant (inclusive) the verdict is reusable
	ok         bool
}

// Cache memoizes per-partition schedulability verdicts across decision
// points. The zero value is ready to use; it is sized on first begin call.
// A Cache belongs to one Policy and is not safe for concurrent use.
type Cache struct {
	entries []verdictEntry
	prefix  []uint64 // prefix[h] = max(stamps[0..h]) for the current decision
	hits    int64
	misses  int64
	// searchValid accumulates, across one candidate search, the minimum
	// validUntil of every verdict the search consulted. Until that instant —
	// and as long as no partition is stamped — the whole search outcome
	// (candidate list and idle eligibility) is reproducible, which Pick
	// exploits to skip the snapshot and search entirely.
	searchValid vtime.Time
}

// begin prepares the cache for one decision over n partitions whose current
// state stamps are stamps[0..n-1].
func (c *Cache) begin(stamps []uint64, n int) {
	if len(c.entries) != n {
		if cap(c.entries) < n {
			c.entries = make([]verdictEntry, n)
			c.prefix = make([]uint64, n)
		}
		c.entries = c.entries[:n]
		c.prefix = c.prefix[:n]
		c.Reset()
	}
	var m uint64
	for i := 0; i < n; i++ {
		if stamps[i] > m {
			m = stamps[i]
		}
		c.prefix[i] = m
	}
	c.searchValid = vtime.Infinity
}

// lookup returns the cached verdict for partition h if it is still valid at
// instant now. cacheIgnoresInvalidation is the timedice_mutation hook: normal
// builds compile it to false and the branch folds away.
func (c *Cache) lookup(h int, now vtime.Time) (ok, hit bool) {
	e := &c.entries[h]
	if (cacheIgnoresInvalidation || e.stamp >= c.prefix[h]) && now <= e.validUntil {
		c.hits++
		if e.validUntil < c.searchValid {
			c.searchValid = e.validUntil
		}
		return e.ok, true
	}
	c.misses++
	return false, false
}

// store memoizes a freshly computed verdict for partition h.
func (c *Cache) store(h int, ok bool, validUntil vtime.Time) {
	c.entries[h] = verdictEntry{stamp: c.prefix[h], validUntil: validUntil, ok: ok}
	if validUntil < c.searchValid {
		c.searchValid = validUntil
	}
}

// Hits returns the number of decision-level test invocations served from the
// cache so far.
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns the number of lookups that found no valid verdict (each
// miss triggers one Algorithm-3 computation, so misses equals the tests
// actually run through the cache).
func (c *Cache) Misses() int64 { return c.misses }

// Lookups returns the total number of cache consultations. Hits and misses
// partition the lookups exactly: Hits() + Misses() == Lookups() always (a
// unit test pins this), so the hit ratio reported by /metrics and the
// tests/decision numbers in HACKING derive from one source.
func (c *Cache) Lookups() int64 { return c.hits + c.misses }

// HitRatio returns Hits/Lookups, or 0 before any lookup.
func (c *Cache) HitRatio() float64 {
	l := c.hits + c.misses
	if l == 0 {
		return 0
	}
	return float64(c.hits) / float64(l)
}

// Reset clears every memoized verdict and the hit/miss counters; entries
// become unreusable at any instant (validUntil −1 precedes every virtual
// time).
func (c *Cache) Reset() {
	for i := range c.entries {
		c.entries[i] = verdictEntry{validUntil: -1}
	}
	c.hits = 0
	c.misses = 0
}

// testVerdict is the one cache-aware test front end, shared by both bindings
// of a stateView: with a nil cache (CandidateSearch) it runs the binding's
// Algorithm-3 test; with a cache (Policy) it serves valid memoized verdicts
// and memoizes fresh ones with their validity horizon. res.Tests counts only actual Algorithm-3
// computations, never cache hits; the fixpoint's work tallies accumulate
// alongside.
func testVerdict(v *stateView, h int, w vtime.Duration, res *SearchResult, cache *Cache) bool {
	if cache != nil {
		if ok, hit := cache.lookup(h, v.now); hit {
			return ok
		}
	}
	res.Tests++
	ok, validFor, cost := v.verdict(h, w)
	res.FixpointIters += cost.iters
	res.InterferenceTerms += cost.terms
	if cache != nil {
		validUntil := vtime.Infinity // FAIL holds for the rest of the epoch
		if ok {
			validUntil = v.now.Add(validFor)
		}
		cache.store(h, ok, validUntil)
	}
	return ok
}
