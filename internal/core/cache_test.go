package core

import (
	"slices"
	"testing"
	"unsafe"

	"timedice/internal/engine"
	"timedice/internal/rng"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

// twoPartStates builds a small two-partition snapshot at the given instant:
// both active with budget remaining and periodic supply. The values are
// loose enough that the verdict for either partition passes comfortably.
func twoPartStates(now vtime.Time) []PartitionState {
	return []PartitionState{
		{Budget: vtime.MS(2), Period: vtime.MS(10), Remaining: vtime.MS(2),
			NextReplenish: now.Add(vtime.MS(10)), Active: true, Runnable: true},
		{Budget: vtime.MS(3), Period: vtime.MS(20), Remaining: vtime.MS(3),
			NextReplenish: now.Add(vtime.MS(20)), Active: true, Runnable: true},
	}
}

// walk runs the cached candidate search over states at now, with the
// partitions from first down runnable and those above it not, so the walk
// consults the cached verdicts of partitions first..n−1 in order (stopping
// at a failure), each against the running prefix of stamps.
func walk(states []PartitionState, first int, now vtime.Time, c *Cache, stamps []uint64) SearchResult {
	st := slices.Clone(states)
	for i := range st {
		st[i].Runnable = i >= first
	}
	c.begin(stamps)
	return search(refView(st, now), 0, nil, c)
}

// TestCachePrefixStaleness pins the per-partition invalidation rule: a stamp
// on partition j stales the cached verdict of every h >= j and leaves every
// h < j untouched, because the verdict for h reads only partitions 0..h.
func TestCachePrefixStaleness(t *testing.T) {
	now := vtime.Time(0)
	states := twoPartStates(now)
	var c Cache

	stamps := []uint64{1, 1}
	if res := walk(states, 0, now, &c, stamps); res.Tests != 2 || !res.IdleOK {
		t.Fatalf("cold cache ran %d tests (idle %v), want 2 passing tests", res.Tests, res.IdleOK)
	}

	// No new stamps: both verdicts must be served from cache.
	if res := walk(states, 0, now, &c, stamps); res.Tests != 0 {
		t.Fatalf("warm cache ran %d tests, want 0", res.Tests)
	}

	// Stamp partition 1 only: verdict 0 stays cached, verdict 1 recomputes.
	stamps[1] = 2
	if res := walk(states, 0, now, &c, stamps); res.Tests != 1 {
		t.Fatalf("after stamping partition 1: %d tests, want 1 (only h=1 recomputes)", res.Tests)
	}

	// Stamp partition 0: both verdicts read partition 0, both recompute.
	stamps[0] = 3
	if res := walk(states, 0, now, &c, stamps); res.Tests != 2 {
		t.Fatalf("after stamping partition 0: %d tests, want 2 (both recompute)", res.Tests)
	}
}

// TestCacheHorizonExpiry pins the temporal half of validity: with no stamp
// movement at all, a PASS verdict is still only served while now is within
// its computed validity horizon — after that the fixpoint must be rerun.
func TestCacheHorizonExpiry(t *testing.T) {
	now := vtime.Time(0)
	states := twoPartStates(now)
	var c Cache
	stamps := []uint64{1, 1}

	if res := walk(states, 1, now, &c, stamps); !res.IdleOK || res.Tests != 1 {
		t.Fatalf("cold verdict: pass=%v tests=%d, want pass in 1 test", res.IdleOK, res.Tests)
	}
	horizon := c.entries[1].validUntil
	if horizon <= now || horizon == vtime.Infinity {
		t.Fatalf("PASS validity horizon = %v, want finite instant after now", horizon)
	}

	// One instant before the horizon: still a hit.
	if res := walk(states, 1, horizon-1, &c, stamps); res.Tests != 0 {
		t.Fatalf("within horizon: %d tests, want 0", res.Tests)
	}
	// The horizon instant itself is inclusive.
	if res := walk(states, 1, horizon, &c, stamps); res.Tests != 0 {
		t.Fatalf("at horizon: %d tests, want 0", res.Tests)
	}
	// Past it: recompute.
	if res := walk(states, 1, horizon+1, &c, stamps); res.Tests != 1 {
		t.Fatalf("past horizon: %d tests, want 1", res.Tests)
	}
}

// TestCacheFailForever pins the FAIL rule: a failing verdict only becomes
// stale through invalidation, never through the passage of time, because the
// busy interval can only grow as time advances within an epoch.
func TestCacheFailForever(t *testing.T) {
	now := vtime.Time(0)
	states := twoPartStates(now)
	// Make partition 1 hopeless: deadline before its own remaining budget
	// plus the higher-priority interference can complete.
	states[1].NextReplenish = now.Add(vtime.MS(4))

	var c Cache
	stamps := []uint64{1, 1}
	if res := walk(states, 1, now, &c, stamps); res.IdleOK || c.entries[1].stamp&verdictPass != 0 {
		t.Fatal("verdict unexpectedly passed; fixture needs a tighter deadline")
	}
	if got := c.entries[1].validUntil; got != vtime.Infinity {
		t.Fatalf("FAIL validUntil = %v, want Infinity", got)
	}

	// Arbitrarily far in the future, same epoch: still served from cache.
	if res := walk(states, 1, now.Add(vtime.MS(1_000_000)), &c, stamps); res.Tests != 0 {
		t.Fatalf("far-future FAIL lookup ran %d tests, want 0", res.Tests)
	}

	// A stamp anywhere in 0..1 drops it.
	stamps[0] = 2
	if res := walk(states, 1, now, &c, stamps); res.Tests != 1 {
		t.Fatalf("after stamp: %d tests, want 1", res.Tests)
	}
}

// TestCacheHitMissAccounting pins the contract behind the /metrics
// hit-ratio gauge: hits and misses partition the lookups exactly (Hits +
// Misses equals the consultations made, after any call sequence), and every
// miss runs exactly one Algorithm-3 computation.
func TestCacheHitMissAccounting(t *testing.T) {
	now := vtime.Time(0)
	states := twoPartStates(now)
	var c Cache

	stamps := []uint64{1, 1}
	var lookups, tests int64
	// consult walks partitions first..1; on this fixture every verdict the
	// walk reaches before the far-future one passes, so it consults each.
	consult := func(first int, at vtime.Time) {
		tests += walk(states, first, at, &c, stamps).Tests
		lookups += int64(len(states) - first)
	}

	// Cold, warm, stale, and far-future consultations in one sequence.
	consult(0, now)                          // miss, miss (cold)
	consult(0, now)                          // hit, hit
	stamps[1] = 2                            // stale partition 1 only
	consult(0, now)                          // hit (prefix below the stamp), miss (stamped)
	consult(1, now.Add(vtime.MS(1_000_000))) // miss (past validUntil)

	if got := c.Hits() + c.Misses(); got != lookups {
		t.Fatalf("hits %d + misses %d = %d, want the %d consultations made", c.Hits(), c.Misses(), got, lookups)
	}
	if c.Hits() != 3 || c.Misses() != 4 {
		t.Fatalf("hits %d, misses %d; want 3 and 4", c.Hits(), c.Misses())
	}
	if c.Misses() != tests {
		t.Fatalf("misses %d, but %d Algorithm-3 computations ran — each miss must compute exactly once", c.Misses(), tests)
	}

	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("Reset must zero hits and misses")
	}
}

// TestPolicyStatsCacheMisses pins the policy-level wiring on a real run:
// with the verdict cache enabled, every Algorithm-3 computation the policy
// reports (SchedTests) was a cache miss, so Stats.CacheMisses ==
// Stats.SchedTests and the lookup total is SchedTests + CacheHits.
func TestPolicyStatsCacheMisses(t *testing.T) {
	built, err := workload.TableIBase().Build()
	if err != nil {
		t.Fatal(err)
	}
	pol := NewPolicy()
	sys, err := engine.New(built.Partitions, pol, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sys.RunFor(2 * vtime.Second)

	st := pol.Stats()
	if st.Decisions == 0 || st.CacheHits == 0 {
		t.Fatalf("run too quiet to exercise the cache: %+v", st)
	}
	if st.CacheMisses != st.SchedTests {
		t.Fatalf("CacheMisses = %d, SchedTests = %d: with the cache on, every computation must be a miss", st.CacheMisses, st.SchedTests)
	}
	if st.CacheHits+st.CacheMisses == 0 {
		t.Fatal("no lookups recorded")
	}
}

// TestVerdictEntryPacked pins the 16-byte entry and its packing: the
// verdict lives in bit 63 of the stamp, and a store then lookup returns the
// verdict and the stamp it went in with, at stamps up to 2^62 and at every
// kind of horizon (already past, finite, and a FAIL's Infinity). An entry
// serves a lookup under its own stamp or an older one while now is at or
// before its horizon, and misses under a newer stamp or past the horizon.
func TestVerdictEntryPacked(t *testing.T) {
	if got := unsafe.Sizeof(verdictEntry{}); got != 16 {
		t.Fatalf("verdictEntry is %d bytes, want 16", got)
	}
	for _, stamp := range []uint64{0, 1, 1 << 62} {
		for _, until := range []vtime.Time{-1, vtime.Time(5 * vtime.Millisecond), vtime.Infinity} {
			for _, ok := range []bool{true, false} {
				e := packEntry(stamp, ok, until)
				if got := e.stamp &^ verdictPass; got != stamp {
					t.Fatalf("stamp %d ok %v: stored stamp reads back %d", stamp, ok, got)
				}
				if until >= 0 {
					for _, at := range []uint64{0, stamp} {
						if gotOK, hit := e.lookup(at, until); !hit || gotOK != ok {
							t.Errorf("stamp %d ok %v until %v: lookup under %d at the horizon = (%v, hit %v), want (%v, hit)", stamp, ok, until, at, gotOK, hit, ok)
						}
					}
				}
				if _, hit := e.lookup(stamp+1, min(until, 0)); hit {
					t.Errorf("stamp %d ok %v until %v: served under a newer stamp", stamp, ok, until)
				}
				if until < vtime.Infinity {
					if _, hit := e.lookup(stamp, until+1); hit {
						t.Errorf("stamp %d ok %v until %v: served past its horizon", stamp, ok, until)
					}
				}
			}
		}
	}
}
