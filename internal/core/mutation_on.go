//go:build timedice_mutation

package core

// cacheIgnoresInvalidation under the timedice_mutation tag: Cache.lookup
// serves memoized verdicts without checking the per-partition state stamps,
// so epoch-bumping events (releases, completions, depletions,
// replenishments, sporadic chunks) no longer invalidate entries and stale
// verdicts — including FAIL verdicts memoized with an unbounded horizon —
// leak into later epochs. The run stays internally consistent, so only a
// differential against the uncached reference policy can catch it;
// TestCacheMutationCaught asserts it does.
var cacheIgnoresInvalidation = true

// fastPathDropsOwnStream under the timedice_mutation tag: the fixpoint fast
// path reads the fold's minimum above h (p.above) for an inactive partition,
// ignoring its own replenishment stream, so a run whose own stream arrives
// inside the opening busy interval is wrongly settled with a zero sum.
// TestFastPathMutationCaught asserts that TestFixpointFastPath's fixtures
// catch it.
var fastPathDropsOwnStream = true

// SetCacheMutant switches the cache-invalidation mutant on or off and
// returns its previous setting. It exists only in timedice_mutation builds,
// so that each mutation test can isolate its own mutant.
func SetCacheMutant(on bool) (was bool) {
	was, cacheIgnoresInvalidation = cacheIgnoresInvalidation, on
	return was
}

// SetFastPathMutant switches the fast-path mutant on or off and returns its
// previous setting. It exists only in timedice_mutation builds.
func SetFastPathMutant(on bool) (was bool) {
	was, fastPathDropsOwnStream = fastPathDropsOwnStream, on
	return was
}
