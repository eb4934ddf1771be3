package core

import (
	"math"

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
// every Π_h with h ≥ j and leaves h < j untouched. The candidate walk
// (search) visits the partitions in index order, so it folds the maximum of
// the engine's stamps over 0..h as it goes and checks each entry against
// that running prefix stamp; begin hands the walk the stamp vector and does
// no O(P) work of its own.
//
// The cache sits inside search, the one candidate walk, which both bindings
// of a decision's stateView share (batch.go). Policy owns one Cache for its
// whole life and always consults it; the public CandidateSearch passes none.
// The cache is keyed by partition index and the engine's stamps, never by
// the binding that computed a verdict, so TestViewMatchesAoS can require two
// caches fed the same stamps to make the same hits and misses under either
// binding.
//
// Layout. The walk reads one entry per partition it passes, so an entry is
// 16 bytes, four to a cache line: the prefix stamp with the verdict packed
// into its bit 63 (verdictPass), and the validity horizon. Bit 63 is free
// because the engine's stamps are values of its epoch counter, which starts
// at 0 and grows by one per discontinuous event: reaching 2^63 takes 2^63
// events (292 years at a billion events per second), and System.Restore
// rejects a snapshot whose epoch is that large. The verdict is not encoded
// in the horizon instead (say, PASS as any finite validUntil): a PASS
// horizon is now.Add(validFor), and that addition wraps at extreme virtual
// times rather than saturating, so a PASS could land on Infinity, the FAIL
// horizon. The walk inlines the lookup and the store, keeps its test count
// and the search's validity bound in locals, and writes the hits, misses
// and bound back once per search.

// verdictEntry is one memoized Algorithm-3 outcome.
type verdictEntry struct {
	// stamp is the prefix stamp the verdict was computed under, with
	// verdictPass set for a PASS.
	stamp      uint64
	validUntil vtime.Time // last instant (inclusive) the verdict is reusable
}

// verdictPass is the bit of verdictEntry.stamp that marks a PASS verdict;
// the engine's stamps stay below it (see Layout above).
const verdictPass = 1 << 63

// packEntry memoizes a verdict computed under prefix stamp stamp.
func packEntry(stamp uint64, ok bool, validUntil vtime.Time) verdictEntry {
	if ok {
		stamp |= verdictPass
	}
	return verdictEntry{stamp: stamp, validUntil: validUntil}
}

// lookup reports whether e serves a walk at prefix stamp stamp and instant
// now — it was computed under that stamp or a later one and is still valid
// at now — and the verdict it holds. cacheIgnoresInvalidation is the
// timedice_mutation hook: normal builds compile it to false and the branch
// folds away.
func (e *verdictEntry) lookup(stamp uint64, now vtime.Time) (ok, hit bool) {
	hit = (cacheIgnoresInvalidation || e.stamp&^verdictPass >= stamp) && now <= e.validUntil
	return e.stamp&verdictPass != 0, hit
}

// Cache memoizes per-partition schedulability verdicts across decision
// points. The zero value is ready to use; it is sized on first begin call.
// A Cache belongs to one Policy and is not safe for concurrent use.
type Cache struct {
	entries []verdictEntry
	stamps  []uint64 // the engine's per-partition stamps for the current decision
	hits    int64
	misses  int64
	// searchValid is, after one candidate search, the minimum validUntil of
	// every verdict the search consulted. Until that instant — and as long
	// as no partition is stamped — the whole search outcome (candidate list
	// and idle eligibility) is reproducible, which Pick exploits to skip the
	// search entirely.
	searchValid vtime.Time
}

// begin prepares the cache for one decision whose partitions' current state
// stamps are stamps, one per partition. The slice is read by the walk, not
// copied.
func (c *Cache) begin(stamps []uint64) {
	if n := len(stamps); len(c.entries) != n {
		if cap(c.entries) < n {
			c.entries = make([]verdictEntry, n)
		}
		c.entries = c.entries[:n]
		c.Reset()
	}
	c.stamps = stamps
	c.searchValid = vtime.Infinity
}

// uncached returns a cache for a walk over n partitions that must compute
// every verdict: each entry expired before the earliest virtual time, so
// every lookup misses, at any instant and under any stamps (the
// cacheIgnoresInvalidation mutant included).
func uncached(n int) *Cache {
	c := &Cache{entries: make([]verdictEntry, n), stamps: make([]uint64, n), searchValid: vtime.Infinity}
	for i := range c.entries {
		c.entries[i].validUntil = math.MinInt64
	}
	return c
}

// Hits returns the number of decision-level test invocations served from the
// cache so far.
func (c *Cache) Hits() int64 { return c.hits }

// Misses returns the number of lookups that found no valid verdict (each
// miss triggers one Algorithm-3 computation, so misses equals the tests
// actually run through the cache).
func (c *Cache) Misses() int64 { return c.misses }

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
