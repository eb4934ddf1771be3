//go:build timedice_mutation

package gen

import (
	"testing"

	"timedice/internal/core"
	"timedice/internal/experiments/runner"
	"timedice/internal/server"
	"timedice/internal/vtime"
)

// mutants names the switchable timedice_mutation mutants a gen run can
// reach. The fifth, the snapshot encoder's dropped sporadic supply, acts
// only inside engine.Snapshot, which these runs never call.
type mutants struct {
	cache, recip, fastPath, replenish bool
}

// setMutants switches every mutant to m for the rest of the test.
func setMutants(t *testing.T, m mutants) {
	t.Helper()
	was := mutants{
		cache:     core.SetCacheMutant(m.cache),
		recip:     vtime.SetRecipMutant(m.recip),
		fastPath:  core.SetFastPathMutant(m.fastPath),
		replenish: server.SetReplenishMutant(m.replenish),
	}
	t.Cleanup(func() {
		core.SetCacheMutant(was.cache)
		vtime.SetRecipMutant(was.recip)
		core.SetFastPathMutant(was.fastPath)
		server.SetReplenishMutant(was.replenish)
	})
}

// referenceDivergence runs the differential corpus under the production
// policy and under refPolicy and returns how many scenarios differ in any
// way referenceMismatch checks.
func referenceDivergence(t *testing.T) int {
	t.Helper()
	n := 200
	if testing.Short() {
		n = 60
	}
	scs := diffScenarios(n, 0xd1ce)
	diverged, err := runner.Map(0, scs, func(i int, sc Scenario) (bool, error) {
		msg, err := referenceMismatch(sc)
		return msg != "", err
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
	t.Logf("%d/%d scenarios diverged from the reference policy", count, n)
	return count
}

// TestMutantsOffNoDivergence is the control for the mutation tests below:
// a timedice_mutation build with every mutant switched off must match the
// reference policy on every scenario, so each mutant's divergence is its
// own.
func TestMutantsOffNoDivergence(t *testing.T) {
	setMutants(t, mutants{})
	if n := referenceDivergence(t); n != 0 {
		t.Fatalf("%d scenarios diverged with every mutant off", n)
	}
}

// TestCacheMutationCaught proves the reference differential has teeth
// against the cache-invalidation mutant: with it alone on, the verdict
// cache's entry lookup ignores the per-partition state stamps and serves
// stale verdicts across releases, completions, depletions and
// replenishments. The reference policy's throwaway cache holds no verdict
// to poison, so at least one scenario must
// diverge. If none does, the invalidation machinery is dead weight — or the
// mutant stopped compiling to a behaviour change — and this test fails.
func TestCacheMutationCaught(t *testing.T) {
	setMutants(t, mutants{cache: true})
	if n := referenceDivergence(t); n == 0 {
		t.Fatal("invalidation-skipping mutant survived: the reference differential cannot catch stale cache verdicts")
	}
}

// TestRecipMutationCaught proves the reference differential has teeth
// against the corrupted-reciprocal mutant: with it alone on,
// vtime.Reciprocal.CeilDiv rounds down (see vtime/mutation_on.go), silently
// skewing every divisionless interference count in the decision kernel. The
// reference keeps plain hardware division, so at least one scenario must
// diverge; if none does, the kernel is not exercising the reciprocal arena
// (or the differential lost its sensitivity) and this test fails.
func TestRecipMutationCaught(t *testing.T) {
	setMutants(t, mutants{recip: true})
	if n := referenceDivergence(t); n == 0 {
		t.Fatal("corrupted-reciprocal mutant survived: the reference differential cannot catch divisionless arithmetic drift")
	}
}

// TestFastPathMutationCorpus measures, without asserting, how often the
// fast-path mutant alone changes a run of the differential corpus. The
// generated scenarios rarely reach the case it breaks — an inactive
// partition whose own replenishment lands inside the opening busy interval
// of a run the fast path would settle — so the mutant's sensitivity proof
// is core's TestFastPathMutationCaught, over TestFixpointFastPath's
// fixtures.
func TestFastPathMutationCorpus(t *testing.T) {
	setMutants(t, mutants{fastPath: true})
	referenceDivergence(t)
}
