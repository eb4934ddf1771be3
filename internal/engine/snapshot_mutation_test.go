//go:build timedice_mutation

package engine_test

// Mutation test for the snapshot battery itself: built with -tags
// timedice_mutation the encoder silently drops sporadic-server replenishment
// chunks (see mutation_on.go), and the differential restore harness MUST
// notice — a restored system that lost its pending supply replenishes later
// and diverges from the straight line. If this test fails, the battery has a
// blind spot. Every other mutant is switched off, so each divergence is the
// encoder's.

import (
	"sync"
	"testing"

	"timedice/internal/core"
	"timedice/internal/experiments/runner"
	"timedice/internal/gen"
	"timedice/internal/rng"
	"timedice/internal/server"
	"timedice/internal/vtime"
)

func TestSnapshotMutationCaught(t *testing.T) {
	defer core.SetCacheMutant(core.SetCacheMutant(false))
	defer core.SetFastPathMutant(core.SetFastPathMutant(false))
	defer vtime.SetRecipMutant(vtime.SetRecipMutant(false))
	defer server.SetReplenishMutant(server.SetReplenishMutant(false))
	n := 200
	if testing.Short() {
		n = 60
	}
	opts := gen.DefaultOptions()
	opts.Servers = []server.Policy{server.Sporadic} // the mutated state
	r := rng.New(0xdead)
	scs := make([]gen.Scenario, n)
	for i := range scs {
		scs[i] = gen.Generate(r, opts)
	}
	var mu sync.Mutex
	caught := 0
	_, err := runner.Map(0, scs, func(i int, sc gen.Scenario) (struct{}, error) {
		mismatch, err := snapshotRoundTrip(sc)
		if err != nil {
			return struct{}{}, err
		}
		if mismatch != "" {
			mu.Lock()
			caught++
			mu.Unlock()
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if caught == 0 {
		t.Fatalf("mutant encoder (dropped sporadic supply) survived %d scenarios: the differential restore battery has a blind spot", n)
	}
	t.Logf("mutant caught by %d/%d scenarios", caught, n)
}
