//go:build timedice_mutation

package check_test

import (
	"testing"

	"timedice/internal/check"
	"timedice/internal/core"
	"timedice/internal/gen"
	"timedice/internal/rng"
	"timedice/internal/server"
	"timedice/internal/vtime"
)

// TestMutationOraclesFire is the end-to-end sensitivity check of the oracle
// suite: built with -tags timedice_mutation, every boundary replenishment in
// the server package is shorted by 100µs (see server/mutation_on.go). That
// injected bug must be caught from the event stream alone — specifically by
// the replenishment-rule oracle ("boundary replenish must restore the full
// budget") on scenarios containing at least one backlogged polling or
// deferrable partition.
//
// Run it with:
//
//	go test -tags timedice_mutation ./internal/check -run TestMutationOraclesFire
//
// (The rest of the tree is not expected to pass under the mutation tag; CI
// selects this test alone.) The decision-path mutants are switched off, so
// every violation is the server mutant's; the snapshot mutant acts only
// inside engine.Snapshot, which these runs never call.
func TestMutationOraclesFire(t *testing.T) {
	defer core.SetCacheMutant(core.SetCacheMutant(false))
	defer core.SetFastPathMutant(core.SetFastPathMutant(false))
	defer vtime.SetRecipMutant(vtime.SetRecipMutant(false))
	defer server.SetReplenishMutant(server.SetReplenishMutant(true))
	r := rng.New(0xdead)
	scenarios, detected := 0, 0
	sawReplenish := false
	for i := 0; i < 40; i++ {
		sc := gen.Generate(r, gen.DefaultOptions())
		// Only boundary-replenished servers are mutated; skip all-sporadic
		// draws rather than dilute the detection rate.
		mutated := false
		for _, p := range sc.Spec.Partitions {
			if p.Server != server.Sporadic {
				mutated = true
			}
		}
		if !mutated {
			continue
		}
		scenarios++
		suite, err := gen.Run(sc)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		vs, total := suite.Violations()
		if total == 0 {
			continue
		}
		detected++
		for _, v := range vs {
			if v.Oracle == check.OracleReplenish {
				sawReplenish = true
			}
		}
	}
	if scenarios == 0 {
		t.Fatal("no scenario contained a mutated (boundary-replenished) server")
	}
	if detected == 0 {
		t.Fatalf("mutation survived: 0 of %d mutated scenarios raised a violation", scenarios)
	}
	if !sawReplenish {
		t.Errorf("no violation came from the replenish oracle; the detection is incidental")
	}
	t.Logf("mutation detected in %d/%d scenarios", detected, scenarios)
}
