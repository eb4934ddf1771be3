//go:build timedice_mutation

package gen

import (
	"testing"

	"timedice/internal/core"
	"timedice/internal/experiments/runner"
	"timedice/internal/vtime"
)

// TestCacheMutationCaught proves the differential digest test has teeth
// against the cache-invalidation mutant: built with -tags timedice_mutation,
// core.Cache.lookup ignores the per-partition state stamps and serves stale
// verdicts across releases, completions, depletions, and replenishments. The
// uncached run is immune (it has no cache to poison; the tag's server-side
// replenishment mutation applies to both runs equally and cancels out), so at
// least one scenario in the differential corpus must diverge in digest. If
// every scenario still matches, the invalidation machinery is dead weight —
// or the mutant stopped compiling to a behaviour change — and this test
// fails.
func TestCacheMutationCaught(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 60
	}
	scs := diffScenarios(n, 0xd1ce)
	diverged, err := runner.Map(0, scs, func(i int, sc Scenario) (bool, error) {
		cached, err := Run(sc)
		if err != nil {
			return false, err
		}
		uncached, err := RunUncached(sc)
		if err != nil {
			return false, err
		}
		return cached.Digest() != uncached.Digest(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, d := range diverged {
		if d {
			count++
		}
	}
	if count == 0 {
		t.Fatalf("invalidation-skipping mutant survived %d scenarios: differential digest test cannot catch stale cache verdicts", n)
	}
	t.Logf("mutant caught: %d/%d scenarios diverged", count, n)
}

// TestRecipMutationCaught proves the indexed-vs-scan differential has teeth
// against the corrupted-reciprocal mutant: under -tags timedice_mutation,
// vtime.NewReciprocal derives its magic constants for divisor d+1 instead of
// d (see vtime/mutation_on.go), silently skewing every divisionless
// interference count in the batched decision kernel. Only the indexed path
// consumes reciprocals — the AoS scan path deliberately keeps plain hardware
// division as the oracle — so the corruption must surface as a digest
// divergence between the two stepping modes on at least one scenario. If
// every scenario still matches, the kernel is not actually exercising the
// reciprocal arena (or the differential lost its sensitivity) and this test
// fails. The tag's other mutations (cache invalidation, snapshot supply,
// server replenishment) apply to both runs equally and cancel out of this
// comparison; the fast-path mutant would not, so it is switched off here.
func TestRecipMutationCaught(t *testing.T) {
	defer core.SetFastPathMutant(core.SetFastPathMutant(false))
	if n := indexedScanDivergence(t); n == 0 {
		t.Fatal("corrupted-reciprocal mutant survived: the kernel differential cannot catch divisionless arithmetic drift")
	}
}

// TestFastPathMutationCaught proves the indexed-vs-scan differential has
// teeth against the fast-path mutant: under -tags timedice_mutation, the
// kernel's O(1) fast path reads the prefix minimum of the stream anchors one
// index short for an inactive partition (see core/mutation_on.go), so a run
// whose own replenishment arrives inside the opening busy interval is settled
// with a zero interference sum — an unsafe PASS the full kernel would not
// give. Only the indexed path has the fast path, so at least one scenario
// must diverge from the scan run. The reciprocal mutant is switched off so
// that this divergence is the fast path's alone.
func TestFastPathMutationCaught(t *testing.T) {
	defer vtime.SetRecipMutant(vtime.SetRecipMutant(false))
	if n := indexedScanDivergence(t); n == 0 {
		t.Fatal("fast-path mutant survived: the indexed-vs-scan differential cannot catch an interference stream the prefix minimum drops")
	}
}

// indexedScanDivergence runs the differential corpus under indexed and scan
// stepping and returns how many scenarios' digests diverge.
func indexedScanDivergence(t *testing.T) int {
	t.Helper()
	n := 200
	if testing.Short() {
		n = 60
	}
	scs := diffScenarios(n, 0xd1ce)
	diverged, err := runner.Map(0, scs, func(i int, sc Scenario) (bool, error) {
		indexed, err := Run(sc)
		if err != nil {
			return false, err
		}
		scan, err := RunScan(sc)
		if err != nil {
			return false, err
		}
		return indexed.Digest() != scan.Digest(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, d := range diverged {
		if d {
			count++
		}
	}
	t.Logf("%d/%d scenarios diverged", count, n)
	return count
}
