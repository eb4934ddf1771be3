package engine_test

import (
	"fmt"
	"testing"

	"timedice/internal/engine"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

// buildSystem assembles the Table I base system under the given policy with
// no trace hook and no telemetry sink — the nil-sink hot path.
func buildSystem(tb testing.TB, kind policies.Kind) *engine.System {
	tb.Helper()
	built, err := workload.TableIBase().Build()
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

// BenchmarkEngineStep measures the steady-state stepping cost of the nil-sink
// engine: one op advances the warmed Table I system by one simulated
// millisecond. The path must stay at 0 allocs/op and make no clock syscalls
// (MeasureLatency off).
func BenchmarkEngineStep(b *testing.B) {
	for _, kind := range []policies.Kind{policies.NoRandom, policies.TimeDiceW} {
		b.Run(kind.String(), func(b *testing.B) {
			sys := buildSystem(b, kind)
			// Warm past the startup transient so job freelists and scratch
			// buffers reach their steady-state capacity.
			sys.RunFor(vtime.Second)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.RunFor(vtime.Millisecond)
			}
		})
	}
}

// BenchmarkRunnable measures the candidate-universe scan; the result shares
// the system's scratch buffer, so the call is allocation-free.
func BenchmarkRunnable(b *testing.B) {
	sys := buildSystem(b, policies.TimeDiceW)
	sys.RunFor(vtime.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := sys.Runnable(); len(got) > len(sys.Partitions) {
			b.Fatal("impossible candidate count")
		}
	}
}

// TestEngineHotPathZeroAlloc pins the allocation contract of the nil-sink
// engine: once warmed, stepping allocates nothing under either policy.
func TestEngineHotPathZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race CI lane")
	}
	for _, kind := range []policies.Kind{policies.NoRandom, policies.TimeDiceW} {
		t.Run(kind.String(), func(t *testing.T) {
			sys := buildSystem(t, kind)
			sys.RunFor(vtime.Second)
			allocs := testing.AllocsPerRun(50, func() {
				sys.RunFor(10 * vtime.Millisecond)
			})
			if allocs != 0 {
				t.Errorf("steady-state stepping allocates %.1f times per 10ms slice, want 0", allocs)
			}
		})
	}
}

// TestRunnableScratchReuse verifies Runnable reuses its backing array across
// calls (the documented validity-until-next-call contract).
func TestRunnableScratchReuse(t *testing.T) {
	sys := buildSystem(t, policies.NoRandom)
	sys.RunFor(vtime.Second)
	first := sys.Runnable()
	// The probe may land on a fully idle instant; advance until a partition
	// is runnable (Table I keeps the CPU ~80% busy, so this is immediate).
	for steps := 0; len(first) == 0 && steps < 1000; steps++ {
		sys.RunFor(100 * vtime.Microsecond)
		first = sys.Runnable()
	}
	if len(first) == 0 {
		t.Fatal("no runnable partition found within 100ms probe window")
	}
	second := sys.Runnable()
	if &first[0] != &second[0] {
		t.Error("Runnable allocated a fresh slice; want scratch-buffer reuse")
	}
}

// buildSparse assembles the n-partition sparse-activity system (three hot
// partitions, n−3 second-scale cold ones) under NoRandom, optionally on the
// reference scan-stepping path.
func buildSparse(tb testing.TB, n int, scan bool) *engine.System {
	tb.Helper()
	built, err := workload.Sparse(n).Build()
	if err != nil {
		tb.Fatal(err)
	}
	pol, err := policies.Build(policies.NoRandom, built.Partitions, policies.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := engine.New(built.Partitions, pol, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	sys.SetScanStepping(scan)
	return sys
}

// BenchmarkEngineStepScale sweeps the partition axis on the sparse-activity
// workload: one op advances the warmed system by one simulated millisecond.
// The amount of schedulable work is constant across P, so the indexed
// variant should stay near-flat while the scan variant grows linearly —
// the gap (≥10× at P=4096, CI-gated) is the partition-axis speedup
// EXPERIMENTS.md records.
//
// Besides ns/op, each run reports B/qpart-step: the engine's deterministic
// cache-traffic proxy (Counters.ArenaBytesTouched) per step per quiescent
// partition (P−3 of the sparse workload's partitions are cold at any given
// millisecond). Indexed stepping never visits a quiescent partition, so the
// metric falls toward 0 as P grows; scan stepping pays a full visit per
// partition per step, so it stays flat — the per-partition cache-line story
// behind the ns/op curves.
func BenchmarkEngineStepScale(b *testing.B) {
	for _, n := range []int{2, 8, 64, 256, 1024, 4096, 16384} {
		for _, mode := range []struct {
			name string
			scan bool
		}{{"indexed", false}, {"scan", true}} {
			b.Run(fmt.Sprintf("P%d/%s", n, mode.name), func(b *testing.B) {
				sys := buildSparse(b, n, mode.scan)
				// Warm past two full cycles of the slowest cold partition
				// (period up to ~2.06s) so job freelists reach steady state.
				sys.RunFor(5 * vtime.Second)
				b.ReportAllocs()
				before := sys.Counters
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sys.RunFor(vtime.Millisecond)
				}
				b.StopTimer()
				// One decision per step, so Decisions counts steps exactly.
				steps := sys.Counters.Decisions - before.Decisions
				bytes := sys.Counters.ArenaBytesTouched - before.ArenaBytesTouched
				if quiescent := n - 3; quiescent > 0 && steps > 0 {
					b.ReportMetric(float64(bytes)/float64(steps)/float64(quiescent), "B/qpart-step")
				}
			})
		}
	}
}

// buildDense assembles the n-partition dense-activity system (every partition
// hot, staggered releases, long candidate lists) under TimeDiceW, the policy
// whose Algorithm-3 decision kernel the workload is built to stress.
func buildDense(tb testing.TB, n int) *engine.System {
	tb.Helper()
	built, err := workload.Dense(n).Build()
	if err != nil {
		tb.Fatal(err)
	}
	pol, err := policies.Build(policies.TimeDiceW, built.Partitions, policies.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := engine.New(built.Partitions, pol, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// BenchmarkEngineStepDense is BenchmarkEngineStepScale's heavy-inversion
// sibling: one op advances the warmed dense-activity system by one simulated
// millisecond under TimeDiceW. Where the sparse sweep keeps decisions trivial
// (few candidates) to isolate the stepping machinery, the dense workload
// keeps most partitions simultaneously runnable, so each decision's candidate
// search runs deep Algorithm-3 tests — the end-to-end cost the decision
// kernel (internal/core kernel.go) optimizes. Besides ns/op it reports the
// engine's deterministic decision-cost proxies per step: fixpoint iterations
// and interference terms (Counters.FixpointIters/InterferenceTerms).
func BenchmarkEngineStepDense(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("P%d", n), func(b *testing.B) {
			sys := buildDense(b, n)
			// Warm past several replenishment cycles (period grows with n,
			// up to 1.6s at P=1024, with releases staggered across the whole
			// period) so freelists and scratch reach capacity.
			sys.RunFor(10 * vtime.Second)
			b.ReportAllocs()
			before := sys.Counters
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.RunFor(vtime.Millisecond)
			}
			b.StopTimer()
			steps := sys.Counters.Decisions - before.Decisions
			if steps > 0 {
				iters := sys.Counters.FixpointIters - before.FixpointIters
				terms := sys.Counters.InterferenceTerms - before.InterferenceTerms
				b.ReportMetric(float64(iters)/float64(steps), "fixiters/step")
				b.ReportMetric(float64(terms)/float64(steps), "terms/step")
			}
		})
	}
}

// TestEngineDenseZeroAlloc pins the allocation contract on the dense
// heavy-inversion workload: long candidate lists and deep kernel fixpoints
// must not reintroduce per-decision allocation.
func TestEngineDenseZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race CI lane")
	}
	for _, n := range []int{64, 1024} {
		t.Run(fmt.Sprintf("P%d", n), func(t *testing.T) {
			sys := buildDense(t, n)
			sys.RunFor(10 * vtime.Second)
			allocs := testing.AllocsPerRun(50, func() {
				sys.RunFor(10 * vtime.Millisecond)
			})
			if allocs != 0 {
				t.Errorf("dense stepping at P=%d allocates %.1f times per 10ms slice, want 0", n, allocs)
			}
		})
	}
}

// TestEngineScaleZeroAlloc pins the allocation contract of the indexed
// stepping path at scale: once warmed, stepping sparse systems up to
// P=16384 allocates nothing.
func TestEngineScaleZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race CI lane")
	}
	for _, n := range []int{64, 256, 1024, 16384} {
		t.Run(fmt.Sprintf("P%d", n), func(t *testing.T) {
			sys := buildSparse(t, n, false)
			// Two full cycles of the slowest cold partition (~2.06s period).
			sys.RunFor(5 * vtime.Second)
			allocs := testing.AllocsPerRun(50, func() {
				sys.RunFor(10 * vtime.Millisecond)
			})
			if allocs != 0 {
				t.Errorf("steady-state stepping at P=%d allocates %.1f times per 10ms slice, want 0", n, allocs)
			}
		})
	}
}
