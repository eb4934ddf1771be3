package gen

import (
	"testing"

	"timedice/internal/engine"
	"timedice/internal/experiments/runner"
	"timedice/internal/rng"
	"timedice/internal/shard"
)

// wallClockless zeroes the wall-clock host observations of a Counters — the
// only fields sharded stepping is allowed to change. Everything else,
// including the path-dependent ArenaBytesTouched and InterferenceTerms that
// the indexed-vs-scan differential must exclude, is required byte-identical
// here: sharding re-hosts the same indexed algorithm, it does not change it.
func wallClockless(c engine.Counters) engine.Counters {
	c.PolicyTime = 0
	c.PolicySamples = 0
	c.ShardMergeTime = 0
	c.PolicyLatency = nil
	return c
}

// TestShardedDigestsMatch is the end-to-end exactness proof for sharded
// stepping: over the generated corpus (every policy — due-phase sharding is
// policy-independent), running the identical scenario
// sequentially and sharded across worker counts {1,2,4,8} (shards =
// 4·workers) must produce byte-identical event streams, identical oracle
// verdicts, byte-identical deterministic counters (full struct, wall-clock
// zeroed), and identical verdict-cache hit/miss tallies. Any drift in due
// ordering, horizon folding, or the merge shows up here. The race lane runs this same test under -race, making it
// the system-level concurrency check too.
func TestShardedDigestsMatch(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 150
	}
	r := rng.New(0x54a4d)
	opts := DefaultOptions()
	scs := make([]Scenario, n)
	for i := range scs {
		scs[i] = Generate(r, opts)
	}
	workerCounts := []int{1, 2, 4, 8}
	// One persistent pool per worker count, shared across the whole corpus —
	// the production shape (pools are long-lived, scenarios churn).
	pools := make(map[int]*shard.Pool, len(workerCounts))
	for _, w := range workerCounts {
		pools[w] = shard.NewPool(w)
		defer pools[w].Close()
	}
	type ref struct {
		digest     uint64
		violations int
		counters   engine.Counters
		hits, miss int64
	}
	// Sequential baselines once per scenario, in parallel across scenarios.
	refs := make([]ref, n)
	_, err := runner.Map(0, scs, func(i int, sc Scenario) (struct{}, error) {
		suite, st, err := RunRecorded(sc, nil)
		if err != nil {
			t.Errorf("scenario %d sequential: %v", i, err)
			return struct{}{}, nil
		}
		_, v := suite.Violations()
		refs[i] = ref{suite.Digest(), v, wallClockless(st.Counters), st.CacheHits, st.CacheMisses}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sharded runs dispatch onto their own pools, so the corpus sweep itself
	// stays sequential per worker count (one pool, one system at a time).
	for _, w := range workerCounts {
		pool := pools[w]
		for i, sc := range scs {
			suite, st, err := RunShardedRecorded(sc, nil, pool, 4*w)
			if err != nil {
				t.Errorf("workers=%d scenario %d: %v", w, i, err)
				continue
			}
			if d := suite.Digest(); d != refs[i].digest {
				enc, _ := Encode(sc)
				t.Errorf("workers=%d scenario %d: sharded digest %#x != sequential %#x\nscenario: %s",
					w, i, d, refs[i].digest, enc)
			}
			if _, v := suite.Violations(); v != refs[i].violations {
				t.Errorf("workers=%d scenario %d: sharded %d violations, sequential %d", w, i, v, refs[i].violations)
			}
			if c := wallClockless(st.Counters); c != refs[i].counters {
				t.Errorf("workers=%d scenario %d: counter divergence:\nsharded:    %+v\nsequential: %+v",
					w, i, c, refs[i].counters)
			}
			if st.CacheHits != refs[i].hits || st.CacheMisses != refs[i].miss {
				t.Errorf("workers=%d scenario %d: verdict-cache divergence: sharded %d/%d, sequential %d/%d",
					w, i, st.CacheHits, st.CacheMisses, refs[i].hits, refs[i].miss)
			}
		}
	}
}
