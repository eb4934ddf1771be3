package multicore

// Core-level parallelism and aggregation. Cores share nothing (the paper's
// partitioned model has no cross-core resources), so advancing them on a
// bounded worker pool is embarrassingly parallel and exact: each core's
// schedule, digest, and counters are byte-identical whether it ran alone or
// alongside the others. The only ordering obligation is the aggregation —
// the combined digest folds per-core digests in core index order, so it too
// is independent of execution interleaving. RunParallel against Run is the
// parallel-vs-sequential oracle the tests pin.

import (
	"timedice/internal/check"
	"timedice/internal/engine"
	"timedice/internal/experiments/runner"
	"timedice/internal/vtime"
)

// AttachDigests attaches one check.Digester per core (replacing any
// previously attached telemetry sink) and returns them in core index order.
// Attach before running; the digesters then witness each core's full event
// stream.
func (s *System) AttachDigests() []*check.Digester {
	ds := make([]*check.Digester, len(s.Cores))
	for c, eng := range s.Cores {
		ds[c] = check.NewDigester()
		eng.AttachTelemetry(ds[c])
	}
	s.digests = ds
	return ds
}

// Digest returns the combined check digest of the multiprocessor run: the
// per-core event-stream digests (and event counts, so an empty stream still
// distinguishes core boundaries) folded in core index order. It requires a
// prior AttachDigests; without one it returns check.DigestSeed over zero
// cores. Because the fold order is the static core order, the value is
// invariant under how core execution interleaved — equal for Run and for
// RunParallel at any worker count.
func (s *System) Digest() uint64 {
	h := check.DigestSeed
	for _, d := range s.digests {
		h = check.Fold64(h, d.Digest())
		h = check.Fold64(h, uint64(d.Events()))
	}
	return h
}

// CombinedCounters sums the State and Work counter rows across cores (see
// engine.CounterClass) — the aggregate the parallel-vs-sequential oracle
// compares alongside the digest. Host rows and PolicyLatency are left
// zero/nil.
func (s *System) CombinedCounters() engine.Counters {
	var out engine.Counters
	for _, c := range s.Cores {
		out.Merge(&c.Counters)
	}
	return out
}

// RunParallel advances every core to the given instant across a bounded
// worker pool (workers <= 1 degenerates to the sequential Run). Cores are
// share-nothing, so the result — every core's state, digest, and counters —
// is identical to Run's; the tests pin digest and combined-counter equality.
func (s *System) RunParallel(until vtime.Time, workers int) {
	if workers <= 1 || len(s.Cores) <= 1 {
		s.Run(until)
		return
	}
	// runner.Map's per-item goroutines write only their own core's state;
	// its join gives the happens-before edge back to the caller. The fn
	// never errors, so the aggregate error is always nil.
	_, _ = runner.Map(workers, s.Cores, func(_ int, c *engine.System) (struct{}, error) {
		c.Run(until)
		return struct{}{}, nil
	})
}
