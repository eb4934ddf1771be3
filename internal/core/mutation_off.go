//go:build !timedice_mutation

package core

// cacheIgnoresInvalidation is the mutation-testing hook for the verdict
// cache: normal builds honour the per-partition state stamps, so any
// discontinuous change (release, completion, depletion, replenishment,
// sporadic chunk) recomputes the affected verdicts. Building with
// -tags timedice_mutation makes the entry lookup skip the stamp comparison (see
// mutation_on.go), an injected staleness bug that the differential against
// the uncached reference policy must detect end-to-end.
const cacheIgnoresInvalidation = false

// fastPathDropsOwnStream is the mutation-testing hook for the fixpoint fast
// path: normal builds test w0 against the prefix minimum over every tracked
// stream, including an inactive partition's own replenishment stream. Under
// -tags timedice_mutation an inactive partition's fast path reads the minimum
// above it instead (see mutation_on.go), so its own stream is ignored and
// the fast path can settle a run whose interference sum is not zero.
// TestFixpointFastPath's fixtures must detect it.
const fastPathDropsOwnStream = false
