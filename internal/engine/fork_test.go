package engine_test

// Fork contract tests: a fork run to the horizon is digest-identical to its
// parent's suffix, forks and parent are fully isolated (raced under -race in
// CI), and Fork's allocation count is pinned to O(live state) — it must not
// grow with how long the parent has been running.

import (
	"sync"
	"testing"

	"timedice/internal/check"
	"timedice/internal/engine"
	"timedice/internal/experiments/runner"
	"timedice/internal/gen"
	"timedice/internal/policies"
	"timedice/internal/telemetry"
	"timedice/internal/vtime"
)

// TestForkDigestsMatch: over generated scenarios across all policies, fork at
// a mid-run step boundary, run parent and fork to the horizon, and require
// the fork's event digest and deterministic counters to match the parent's
// suffix exactly.
func TestForkDigestsMatch(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	scs := snapshotScenarios(n, 0xf0f0)
	_, err := runner.Map(0, scs, func(i int, sc gen.Scenario) (struct{}, error) {
		sys, err := gen.Build(sc)
		if err != nil {
			return struct{}{}, nil // unbuildable (TDMA slot rounding); not a fork property
		}
		horizon := vtime.Time(0).Add(sc.Horizon)
		mid := vtime.Time(0).Add(vtime.Duration(int64(sc.Horizon) / 10 * int64(1+sc.Seed%8)))
		rec := telemetry.NewRecorder()
		sys.AttachTelemetry(rec)
		for sys.Now() < mid {
			sys.Step(horizon)
		}
		prefixLen := rec.Len()

		// Fork before the parent moves again, then run both to the horizon.
		fk := sys.Fork()
		frec := telemetry.NewRecorder()
		fk.AttachTelemetry(frec)

		sys.Run(horizon)
		sys.FlushTelemetry()
		fk.Run(horizon)
		fk.FlushTelemetry()

		parentSuffix := rec.Events()[prefixLen:]
		want := check.DigestEvents(parentSuffix)
		got := check.DigestEvents(frec.Events())
		if want != got {
			enc, _ := gen.Encode(sc)
			t.Errorf("scenario %d: fork digest %#016x != parent suffix %#016x\nscenario: %s", i, got, want, enc)
			return struct{}{}, nil
		}
		if pc, fc := sys.Counters.Only(engine.State), fk.Counters.Only(engine.State); pc != fc {
			enc, _ := gen.Encode(sc)
			t.Errorf("scenario %d: fork counters %+v != parent %+v\nscenario: %s", i, fc, pc, enc)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForkIsolationRace runs a parent and several differently-seeded forks
// concurrently. Under -race (the CI race lane) any state shared between them
// is a detector hit; in all lanes each system must independently reach the
// horizon.
func TestForkIsolationRace(t *testing.T) {
	sc := goldenScenario()
	sc.Policy = policies.TimeDiceW // randomized: RNG sharing would be visible
	sys, err := gen.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachTelemetry(telemetry.NewRecorder())
	horizon := vtime.Time(0).Add(sc.Horizon)
	mid := vtime.Time(0).Add(sc.Horizon / 2)
	for sys.Now() < mid {
		sys.Step(horizon)
	}

	const nForks = 4
	var wg sync.WaitGroup
	systems := make([]*engine.System, 0, nForks+1)
	run := func(s *engine.System) {
		defer wg.Done()
		s.Run(horizon)
		s.FlushTelemetry()
	}
	for i := 0; i < nForks; i++ {
		fk := sys.Fork()
		fk.Rand.Seed(uint64(1000 + i))
		fk.AttachTelemetry(telemetry.NewRecorder())
		systems = append(systems, fk)
		wg.Add(1)
		go run(fk)
	}
	systems = append(systems, sys)
	wg.Add(1)
	go run(sys)
	wg.Wait()

	for i, s := range systems {
		if s.Now() != horizon {
			t.Errorf("system %d stopped at %v, want %v", i, s.Now(), horizon)
		}
	}
}

// TestForkBoundedAlloc pins Fork's allocation count to the live state: forking
// after a long run must not allocate more than forking after a short one.
// Skipped under -race (instrumentation inflates allocation counts).
func TestForkBoundedAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sys := buildSystem(t, policies.TimeDiceW)
	sys.Run(vtime.Time(0).Add(vtime.Second))
	early := testing.AllocsPerRun(20, func() { _ = sys.Fork() })

	sys.RunFor(5 * vtime.Second)
	late := testing.AllocsPerRun(20, func() { _ = sys.Fork() })

	const ceiling = 400 // generous bound for TableI's live state
	if early > ceiling || late > ceiling {
		t.Errorf("Fork allocates too much: %.0f early, %.0f late (ceiling %d)", early, late, ceiling)
	}
	if late > early*2+16 {
		t.Errorf("Fork allocations grew with run length: %.0f early vs %.0f late", early, late)
	}
	t.Logf("Fork allocs: %.0f after 1s, %.0f after 6s", early, late)
}

// BenchmarkFork measures a bare fork of a warmed-up TableI system.
func BenchmarkFork(b *testing.B) {
	sys := buildSystem(b, policies.TimeDiceW)
	sys.Run(vtime.Time(0).Add(vtime.Second))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.Fork()
	}
}

// BenchmarkForkExploreVsReplay compares the two ways to branch an alternate
// future from t=1s: forking the live system versus re-running from zero with
// the same seed. The ratio is the speedup fork-based exploration buys simfuzz
// (see EXPERIMENTS.md).
func BenchmarkForkExploreVsReplay(b *testing.B) {
	const (
		prefix = vtime.Second           // how deep the branch point is
		tail   = 10 * vtime.Millisecond // how far each future runs
	)
	b.Run("fork", func(b *testing.B) {
		sys := buildSystem(b, policies.TimeDiceW)
		sys.Run(vtime.Time(0).Add(prefix))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fk := sys.Fork()
			fk.Rand.Seed(uint64(i) + 2)
			fk.RunFor(tail)
		}
	})
	b.Run("replay", func(b *testing.B) {
		sys := buildSystem(b, policies.TimeDiceW)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.ResetSeed(1)
			sys.Run(vtime.Time(0).Add(prefix))
			sys.Rand.Seed(uint64(i) + 2)
			sys.RunFor(tail)
		}
	})
}
