package engine_test

import (
	"testing"

	"timedice/internal/engine"
	"timedice/internal/policies"
	"timedice/internal/vtime"
)

// collectSegments runs the system to the given instant and returns the trace.
func collectSegments(sys *engine.System, until vtime.Duration) []engine.Segment {
	var segs []engine.Segment
	sys.TraceFn = func(s engine.Segment) { segs = append(segs, s) }
	sys.Run(vtime.Time(until))
	sys.TraceFn = nil
	return segs
}

// TestResetSeedDeterminism pins the reuse contract: a system reset with
// ResetSeed replays the exact schedule of a freshly constructed system with
// that seed — segment for segment — and repeated resets keep replaying it.
func TestResetSeedDeterminism(t *testing.T) {
	const horizon = 500 * vtime.Millisecond
	for _, kind := range []policies.Kind{policies.NoRandom, policies.TimeDiceW, policies.TimeDiceU} {
		t.Run(kind.String(), func(t *testing.T) {
			fresh := buildSystem(t, kind)
			want := collectSegments(fresh, horizon)

			reused := buildSystem(t, kind)
			// Dirty the system with a different-length run first so the reset
			// has real state to clear.
			reused.RunFor(137 * vtime.Millisecond)
			for trial := 0; trial < 3; trial++ {
				reused.ResetSeed(1) // buildSystem seeds rng.New(1)
				got := collectSegments(reused, horizon)
				if len(got) != len(want) {
					t.Fatalf("trial %d: %d segments, want %d", trial, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d: segment %d = %+v, want %+v", trial, i, got[i], want[i])
					}
				}
			}

			// Counters must match a fresh run too.
			reused.ResetSeed(1)
			reused.Run(vtime.Time(horizon))
			if reused.Counters != fresh.Counters {
				t.Errorf("counters diverge after reset: %+v vs %+v", reused.Counters, fresh.Counters)
			}
		})
	}
}

// TestTrialReuseZeroAlloc pins the campaign-reuse allocation contract: once a
// system is warm, ResetSeed + re-run allocates nothing — also with
// MeasureLatency, whose Pick-latency sketch keeps its buffers across Reset.
func TestTrialReuseZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race CI lane")
	}
	for _, tc := range []struct {
		kind    policies.Kind
		measure bool
	}{{policies.NoRandom, false}, {policies.TimeDiceW, false}, {policies.TimeDiceW, true}} {
		name := tc.kind.String()
		if tc.measure {
			name += "/MeasureLatency"
		}
		t.Run(name, func(t *testing.T) {
			sys := buildSystem(t, tc.kind)
			sys.MeasureLatency = tc.measure
			// A one-second trial makes over 1024 decisions, so every trial
			// spills the latency sketch to buckets and the next one refills
			// its exact buffer after Reset.
			sys.RunFor(vtime.Second) // warm freelists and scratch to high-water mark
			seed := uint64(1)
			allocs := testing.AllocsPerRun(20, func() {
				sys.ResetSeed(seed)
				seed++
				sys.RunFor(vtime.Second)
			})
			if allocs != 0 {
				t.Errorf("reused trial allocates %.1f times, want 0", allocs)
			}
		})
	}
}

// BenchmarkTrialReuse contrasts per-trial cost with and without system reuse:
// Fresh constructs the full system every trial (the pre-reuse campaign
// behaviour), Reset reuses one system via ResetSeed. Each op is one 100ms
// trial of the Table I system under TimeDiceW.
func BenchmarkTrialReuse(b *testing.B) {
	const trial = 100 * vtime.Millisecond
	b.Run("Fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := buildSystem(b, policies.TimeDiceW)
			sys.RunFor(trial)
		}
	})
	b.Run("Reset", func(b *testing.B) {
		sys := buildSystem(b, policies.TimeDiceW)
		sys.RunFor(trial) // warm-up trial
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.ResetSeed(uint64(i) + 1)
			sys.RunFor(trial)
		}
	})
}
