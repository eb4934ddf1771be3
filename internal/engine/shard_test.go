package engine_test

import (
	"fmt"
	"testing"

	"timedice/internal/check"
	"timedice/internal/engine"
	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/shard"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

// buildFor assembles a system for the given spec and policy kind with no
// sink attached — the shard tests attach their own digesters.
func buildFor(tb testing.TB, spec model.SystemSpec, kind policies.Kind) *engine.System {
	tb.Helper()
	built, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	pol, err := policies.Build(kind, built.Partitions, policies.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := engine.New(built.Partitions, pol, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// shardFixtures are the workload/policy mixes the exactness tests sweep:
// dense keeps most partitions runnable (deep Algorithm-3 searches between
// the sharded due phases), sparse keeps
// the due phase selective (shard heaps mostly empty), and the Table I base
// system is the paper's reference shape.
var shardFixtures = []struct {
	name string
	spec func() model.SystemSpec
	kind policies.Kind
	run  vtime.Duration
}{
	{"dense_P96_timedicew", func() model.SystemSpec { return workload.Dense(96) }, policies.TimeDiceW, 2 * vtime.Second},
	{"sparse_P256_timedicew", func() model.SystemSpec { return workload.Sparse(256) }, policies.TimeDiceW, 2 * vtime.Second},
	{"sparse_P256_norandom", func() model.SystemSpec { return workload.Sparse(256) }, policies.NoRandom, 2 * vtime.Second},
	{"tableI_timediceu", workload.TableIBase, policies.TimeDiceU, 2 * vtime.Second},
}

// TestShardedSteppingMatchesSequential is the engine-level exactness pin:
// for every fixture, worker count, and shard count — including shard counts
// that split unevenly, equal P (singleton shards), and exceed P (empty
// shards) — the sharded run's event-stream digest, event count, and full
// Counters struct must equal the sequential run's byte for byte. Run under
// -race (the CI race lane) it is also the concurrency test for shard
// workers sharing the hot arenas read-only.
func TestShardedSteppingMatchesSequential(t *testing.T) {
	for _, fx := range shardFixtures {
		t.Run(fx.name, func(t *testing.T) {
			ref := buildFor(t, fx.spec(), fx.kind)
			refDig := check.NewDigester()
			ref.AttachTelemetry(refDig)
			ref.RunFor(fx.run)
			if refDig.Events() == 0 {
				t.Fatal("sequential reference emitted no events")
			}
			p := len(ref.Partitions)
			for _, workers := range []int{1, 2, 4, 8} {
				pool := shard.NewPool(workers)
				for _, shards := range []int{2, 3, 7, 4 * workers, p, 3 * p} {
					sys := buildFor(t, fx.spec(), fx.kind)
					dig := check.NewDigester()
					sys.AttachTelemetry(dig)
					sys.SetSharding(pool, shards)
					if got := sys.ShardWorkers(); got != workers {
						t.Fatalf("ShardWorkers() = %d, want %d", got, workers)
					}
					sys.RunFor(fx.run)
					if dig.Digest() != refDig.Digest() || dig.Events() != refDig.Events() {
						t.Errorf("workers=%d shards=%d: digest %#x (%d events), sequential %#x (%d events)",
							workers, shards, dig.Digest(), dig.Events(), refDig.Digest(), refDig.Events())
					}
					if sys.Counters != ref.Counters {
						t.Errorf("workers=%d shards=%d: counters diverge:\n sharded    %+v\n sequential %+v",
							workers, shards, sys.Counters, ref.Counters)
					}
				}
				pool.Close()
			}
		})
	}
}

// TestShardedDisableResyncs pins SetSharding's disable path: the global
// event heap goes stale while sharded, and disabling must resync it so the
// continued sequential run matches a never-sharded one exactly.
func TestShardedDisableResyncs(t *testing.T) {
	ref := buildFor(t, workload.Dense(64), policies.TimeDiceW)
	refDig := check.NewDigester()
	ref.AttachTelemetry(refDig)
	ref.RunFor(3 * vtime.Second)

	pool := shard.NewPool(4)
	defer pool.Close()
	sys := buildFor(t, workload.Dense(64), policies.TimeDiceW)
	dig := check.NewDigester()
	sys.AttachTelemetry(dig)
	sys.SetSharding(pool, 16)
	sys.RunFor(vtime.Second)
	sys.SetSharding(nil, 0) // back to the sequential configuration mid-run
	sys.RunFor(2 * vtime.Second)
	if dig.Digest() != refDig.Digest() || sys.Counters != ref.Counters {
		t.Errorf("sharded-then-disabled run diverged from sequential: digest %#x vs %#x",
			dig.Digest(), refDig.Digest())
	}
}

// TestShardedResetReplays pins Reset under sharding: the shard heaps must
// rewind with the rest of the system so a reset run replays the first one.
func TestShardedResetReplays(t *testing.T) {
	pool := shard.NewPool(4)
	defer pool.Close()
	sys := buildFor(t, workload.Dense(64), policies.TimeDiceW)
	dig := check.NewDigester()
	sys.AttachTelemetry(dig)
	sys.SetSharding(pool, 16)
	sys.RunFor(vtime.Second)
	first := dig.Digest()
	sys.ResetSeed(1)
	dig.Reset()
	sys.RunFor(vtime.Second)
	if dig.Digest() != first {
		t.Errorf("reset sharded run digest %#x, first run %#x", dig.Digest(), first)
	}
}

// TestShardedSteppingZeroAlloc pins the steady-state cost contract of the
// sharded step loop: once warmed, stepping with a live pool dispatch — due
// collection crossing the barrier — allocates nothing.
func TestShardedSteppingZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race CI lane")
	}
	pool := shard.NewPool(2)
	defer pool.Close()
	sys := buildFor(t, workload.Dense(256), policies.TimeDiceW)
	sys.SetSharding(pool, 8)
	sys.RunFor(10 * vtime.Second)
	allocs := testing.AllocsPerRun(50, func() {
		sys.RunFor(10 * vtime.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("steady-state sharded stepping allocates %.1f times per 10ms slice, want 0", allocs)
	}
}

// BenchmarkEngineStepShard is the scaling matrix behind BENCH_scale.json's
// shard section: one op advances the warmed system by one simulated
// millisecond, swept over workers ∈ {1,2,4,8} with shards = 4·workers.
// dense/P1024 (TimeDiceW, deep candidate searches) is decision-bound, so
// sharding only moves its due phase; the sparse P=4096/16384 rows probe the
// due/horizon phases at scale, where per-step work is too small to amortize
// a dispatch.
func BenchmarkEngineStepShard(b *testing.B) {
	type cfg struct {
		name string
		spec func() model.SystemSpec
		kind policies.Kind
		warm vtime.Duration
	}
	for _, c := range []cfg{
		{"dense_P1024", func() model.SystemSpec { return workload.Dense(1024) }, policies.TimeDiceW, 10 * vtime.Second},
		{"sparse_P4096", func() model.SystemSpec { return workload.Sparse(4096) }, policies.NoRandom, 30 * vtime.Second},
		{"sparse_P16384", func() model.SystemSpec { return workload.Sparse(16384) }, policies.NoRandom, 30 * vtime.Second},
	} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers%d", c.name, workers), func(b *testing.B) {
				pool := shard.NewPool(workers)
				defer pool.Close()
				sys := buildFor(b, c.spec(), c.kind)
				if workers > 1 {
					sys.SetSharding(pool, 4*workers)
				}
				sys.RunFor(c.warm)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sys.RunFor(vtime.Millisecond)
				}
			})
		}
	}
}
