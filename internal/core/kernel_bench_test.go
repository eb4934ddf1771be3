package core

import (
	"testing"

	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// denseKernelStates builds the dense decision-kernel fixture: every partition
// active and runnable on a shared 40 ms period with uniform small remaining
// budgets (total utilization ≈ 0.4 — each budget is charged twice, as
// remaining demand and as one in-interval replenishment, so every level-h
// test still passes) and
// staggered early sporadic supply chunks, which pull the interference streams
// inside the busy interval and force the fixpoint through multiple
// iterations. This is the shape where Algorithm 3 is hottest: O(h) charged
// streams per test and a growing interval, i.e. the Table-I all-partitions-
// busy case scaled along the partition axis.
func denseKernelStates(n int, now vtime.Time) []PartitionState {
	period := 40 * vtime.Millisecond
	budget := period * 4 / (10 * vtime.Duration(n))
	if budget <= 0 {
		budget = 1
	}
	states := make([]PartitionState, n)
	for i := range states {
		states[i] = PartitionState{
			Budget:        budget,
			Period:        period,
			Remaining:     budget,
			NextReplenish: now.Add(period),
			NextSupply:    now.Add(vtime.Duration(1+i%8) * vtime.Millisecond),
			Active:        true,
			Runnable:      true,
		}
	}
	return states
}

// fastPathKernelStates is the dense fixture with every supply anchor moved
// out to the replenishment deadline: no stream arrives inside any level's
// busy interval, so the kernel settles every test on its O(1) fast path
// while the reference still re-sums all h higher-priority streams.
func fastPathKernelStates(n int, now vtime.Time) []PartitionState {
	states := denseKernelStates(n, now)
	for i := range states {
		states[i].NextSupply = states[i].NextReplenish
	}
	return states
}

var benchVerdictSink bool

// BenchmarkDecisionKernel times one full per-partition Algorithm-3 sweep
// (h = 0..P−1, uncached — exactly the fixpoint work of a worst-case decision)
// through the two implementations that the differential suite pins equal:
//
//   - reference: the AoS schedFixpoint, hardware division, full re-summation
//     every iteration;
//   - kernel: the batched stateView fixpoint, reciprocal division, incremental
//     interference maintenance, each level under the walk's prefix fold
//     (folded once, outside the timer).
//
// CI runs both from the same binary and gates the dense_P64 and
// fastpath_P1024 reference/kernel ratios (see .github/workflows/ci.yml); the
// dense fixture is the multi-iteration high-interference shape that runs the
// full kernel, fastpath the same systems with no arrival inside any busy
// interval, and sparse the randomized mostly-inactive mix where early
// convergence dominates.
func BenchmarkDecisionKernel(b *testing.B) {
	now := vtime.Time(17 * vtime.Millisecond)
	w := DefaultQuantum
	fixtures := []struct {
		name   string
		states []PartitionState
	}{
		{"dense_P64", denseKernelStates(64, now)},
		{"dense_P1024", denseKernelStates(1024, now)},
		{"fastpath_P1024", fastPathKernelStates(1024, now)},
		{"sparse_P1024", randomStates(rng.New(0xd1ce), 1024, now)},
	}
	for _, fx := range fixtures {
		n := len(fx.states)
		b.Run(fx.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for h := 0; h < n; h++ {
					ok, _, _, _ := schedFixpoint(fx.states, h, now, w)
					benchVerdictSink = benchVerdictSink != ok
				}
			}
		})
		b.Run(fx.name+"/kernel", func(b *testing.B) {
			v := viewFromStates(fx.states, now)
			folds := make([]prefix, n)
			p := noPrefix
			for h := range folds {
				p = foldAt(v, p, h)
				folds[h] = p
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for h, p := range folds {
					ok, _, _, _, _ := v.fixpoint(h, w, p)
					benchVerdictSink = benchVerdictSink != ok
				}
			}
		})
	}
}

// TestDecisionKernelBenchFixture guards the fixtures' premises. Dense: every
// level passes (so the benchmark exercises full fixpoints, not early
// failures) and the runs take multiple iterations (so the incremental
// maintenance actually has work to skip). Fastpath: every level passes and
// the kernel settles every one on the fast path.
func TestDecisionKernelBenchFixture(t *testing.T) {
	now := vtime.Time(17 * vtime.Millisecond)
	states := denseKernelStates(64, now)
	var iters int64
	for h := range states {
		ok, _, _, cost := schedFixpoint(states, h, now, DefaultQuantum)
		if !ok {
			t.Fatalf("dense fixture fails at h=%d; benchmark would measure early exits", h)
		}
		iters += cost.iters
	}
	if iters < int64(len(states))*3/2 {
		t.Fatalf("dense fixture converged in %d total iterations over %d levels; need multi-iteration fixpoints", iters, len(states))
	}

	states = fastPathKernelStates(1024, now)
	v := viewFromStates(states, now)
	p := noPrefix
	for h := range states {
		p = foldAt(v, p, h)
		if ok, _, _, _, _, fast := fixpointBranch(v, h, DefaultQuantum, p); !ok || !fast {
			t.Fatalf("fastpath fixture at h=%d: pass %v, fast path %v; want both", h, ok, fast)
		}
	}
}
