package engine

// This file is the engine half of multi-core sharded stepping: running the
// per-partition-independent phases of one simulated system's step loop across
// a persistent worker pool (internal/shard) with results byte-identical to
// the sequential path.
//
// The step loop has two phases whose work decomposes by partition index with
// no cross-partition data flow:
//
//  1. Due-event *discovery* — which partitions have nextEv ≤ now. Under
//     sharding each contiguous shard owns a range heap (eventq.IndexMinRange)
//     mirroring its slice of nextEv; workers run the pruned CollectDue
//     descent and shard-local sort concurrently, and the merge concatenates
//     the per-shard sets in shard index order. Shards are ascending
//     contiguous ranges, so the concatenation of sorted shard-local sets is
//     globally sorted: exactly the `slices.Sort(CollectDue(...))` set the
//     sequential path delivers against. Delivery *application* stays
//     sequential — bumpStamp hands out global epoch values in delivery
//     order, so applying in parallel would scramble the stamp vector the
//     verdict cache keys on.
//
//  2. The next-event horizon — min over nextEv. Each shard root already
//     holds its range's minimum (maintained incrementally by setNextEv's
//     routed writes), so the "parallel" part is the heap maintenance the
//     shards do anyway; step folds the O(shards) roots in shard index order.
//
// Everything else — delivery application, the candidate search, execution,
// the lottery draw — stays sequential, which is what makes the parallel run *exact* rather than
// merely statistically equivalent: every RNG draw happens on one goroutine
// in the same order as the sequential run.
//
// Memory model: workers only ever touch shard-owned state (their shards'
// heaps and due buffers) between the pool's release and join barriers; the
// engine mutates heaps only outside a dispatch. The barrier crossings give
// the happens-before edges in both directions (see shard.Pool.Run).

import (
	"slices"
	"time"

	"timedice/internal/eventq"
	"timedice/internal/shard"
	"timedice/internal/vtime"
)

// SetSharding enables or disables sharded stepping. With a non-nil pool and
// shards >= 2 the partition universe is split into `shards` contiguous
// ranges, per-shard range heaps are built and initialized from the
// authoritative nextEv cache, and subsequent steps run the shardable phases
// across the pool (the caller retains ownership of the pool and must Close
// it after the system is done with it; one pool must never be shared by two
// systems stepping concurrently). With a nil pool or shards < 2 sharding is disabled and the
// global event heap is resynced from nextEv, restoring exactly the
// sequential configuration.
//
// Sharding only affects indexed stepping; a ScanStepping system ignores it
// (the scan path consults neither heap). Calling SetSharding between steps
// is always safe — the heaps are rebuilt from nextEv, which is exact at
// every step boundary. Fork drops sharding (the fork builds its own global
// heap); a restored snapshot keeps it.
func (s *System) SetSharding(pool *shard.Pool, shards int) {
	if pool == nil || shards < 2 {
		if s.shardQ != nil {
			// The global heap went stale while sharded; resync it from the
			// authoritative linear cache.
			for i, t := range s.nextEv {
				s.evq.Update(i, t)
			}
		}
		s.shardPool = nil
		s.shardOf = nil
		s.shardQ = nil
		s.shardDue = nil
		s.shardFn = nil
		return
	}
	n := len(s.Partitions)
	ranges := shard.Split(n, shards)
	s.shardOf = make([]int32, n)
	s.shardQ = make([]*eventq.IndexMin, shards)
	s.shardDue = make([][]int32, shards)
	for k, r := range ranges {
		q := eventq.NewIndexMinRange(r.Lo, r.Hi)
		for i := r.Lo; i < r.Hi; i++ {
			s.shardOf[i] = int32(k)
			q.Update(i, s.nextEv[i])
		}
		s.shardQ[k] = q
		s.shardDue[k] = make([]int32, 0, r.Len())
	}
	s.shardPool = pool
	// Prebuilt dispatch closure: worker w owns shards w, w+W, w+2W, … — a
	// pure function of the configuration, so the shard→worker assignment
	// (and with it every per-shard buffer) is scheduling-independent.
	s.shardFn = func(worker int) {
		w := s.shardPool.Workers()
		for k := worker; k < len(s.shardQ); k += w {
			d := s.shardQ[k].CollectDue(s.shardNow, s.shardDue[k][:0])
			slices.Sort(d)
			s.shardDue[k] = d
		}
	}
}

// ShardWorkers returns the worker count sharded stepping runs across, or 1
// when sharding is disabled — the value the run ledger and /metrics report.
func (s *System) ShardWorkers() int {
	if s.shardPool == nil {
		return 1
	}
	return s.shardPool.Workers()
}

// collectDueSharded is the sharded due-discovery phase: collect each shard's
// due set (parallel when worthwhile), then merge by concatenation in shard
// index order. The result is byte-identical to the sequential
// sort(CollectDue(global)) because shard ranges ascend and each shard-local
// set is sorted.
func (s *System) collectDueSharded(now vtime.Time, out []int32) []int32 {
	// Dispatch gate: a pool dispatch costs two barrier crossings, worth
	// paying only when at least two shards actually have due work. The gate
	// reads each shard's root — O(shards) loads against heaps this goroutine
	// last wrote, no synchronization needed.
	dueShards := 0
	for _, q := range s.shardQ {
		if q.MinKey() <= now {
			dueShards++
		}
	}
	if dueShards == 0 {
		return out
	}
	if dueShards >= 2 && s.shardPool.Workers() >= 2 {
		s.shardNow = now
		s.shardPool.Run(s.shardFn)
	} else {
		for k, q := range s.shardQ {
			d := q.CollectDue(now, s.shardDue[k][:0])
			slices.Sort(d)
			s.shardDue[k] = d
		}
	}
	// Deterministic merge, timed only under MeasureLatency (same contract as
	// PolicyTime: no clock syscalls on the default path).
	var t0 time.Time
	if s.MeasureLatency {
		t0 = time.Now()
	}
	for k := range s.shardDue {
		out = append(out, s.shardDue[k]...)
	}
	if s.MeasureLatency {
		s.Counters.ShardMergeTime += time.Since(t0)
	}
	return out
}
