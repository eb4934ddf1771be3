//go:build !timedice_mutation

package vtime

// recipRoundSkew is the corrupted-reciprocal mutation hook: normal builds
// compile it to zero and Reciprocal.CeilDiv's skew term folds away. Under the
// timedice_mutation tag (mutation_on.go) it becomes 1, corrupting the
// kernel's ⌈x⌉₀ stream-count operator into floor rounding — the interference
// sum then misses one replenishment from every stream whose arrival falls
// strictly inside a partial period of the busy interval, the classic
// ceil-vs-floor boundary bug in response-time analysis. Only the divisionless
// decision kernel consumes Reciprocal quotients; the plain-division reference
// (core.CandidateSearch) keeps hardware division, so the corruption is
// visible exactly where it must be: TestRecipMutationCaught proves the
// reference-policy differential of internal/gen notices.
const recipRoundSkew = 0
