package engine_test

import (
	"testing"

	"timedice/internal/engine"
	"timedice/internal/model"
	"timedice/internal/rng"
	"timedice/internal/sched"
	"timedice/internal/server"
	"timedice/internal/vtime"
)

func buildStampSystem(t *testing.T, spec model.SystemSpec) *engine.System {
	t.Helper()
	built, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := engine.New(built.Partitions, sched.FixedPriority{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestStampBumpSites drives a two-partition deferrable system through each
// epoch-bumping event kind and asserts that exactly the affected partition's
// state stamp moves: releases, completions, budget depletion, replenishments,
// and the silent period-boundary advance that fires no observer callback.
// The stamps are what invalidate cached schedulability verdicts (a stamp on
// partition j stales the cached verdicts of every h >= j via the running
// stamp maximum core's candidate walk checks each cache entry against), so
// per-partition precision here is per-partition cache invalidation
// precision.
func TestStampBumpSites(t *testing.T) {
	// Deferrable servers retain budget while idle, so no NoteIdle discards
	// muddy the per-event attribution. Timeline (ms):
	//   0     initial delivery               -> both stamped
	//   3     task a released (P0)           -> P0 only
	//   3..5  a executes 2ms = full budget   -> P0 completion + depletion at 5
	//   7     task b released (P1)           -> P1 only
	//   7..8  b executes (P1 keeps 2ms left) -> P1 completion at 8
	//   10    P0 boundary replenishment      -> P0 only
	//   15    P1 boundary replenishment      -> P1 only
	//   20    P0 boundary with full budget   -> P0 only (silent advance:
	//         no Replenished callback fires, but the deadline anchor moves)
	spec := model.SystemSpec{
		Name: "stamps",
		Partitions: []model.PartitionSpec{
			{Name: "P0", Budget: vtime.MS(2), Period: vtime.MS(10), Server: server.Deferrable,
				Tasks: []model.TaskSpec{{Name: "a", Period: vtime.MS(50), WCET: vtime.MS(2), Offset: vtime.MS(3)}}},
			{Name: "P1", Budget: vtime.MS(3), Period: vtime.MS(15), Server: server.Deferrable,
				Tasks: []model.TaskSpec{{Name: "b", Period: vtime.MS(60), WCET: vtime.MS(1), Offset: vtime.MS(7)}}},
		},
	}
	sys := buildStampSystem(t, spec)

	probe := func() [2]uint64 {
		st := sys.StateStamps()
		return [2]uint64{st[0], st[1]}
	}

	steps := []struct {
		name  string
		runTo vtime.Duration // absolute instant to advance past (ms timeline above)
		want  [2]bool        // which partitions must have been stamped in the window
	}{
		{"initial delivery", vtime.MS(1), [2]bool{true, true}},
		{"quiet window before first release", vtime.MS(2) + vtime.MS(1)/2, [2]bool{false, false}},
		{"release of a stamps P0 only", vtime.MS(4), [2]bool{true, false}},
		{"completion+depletion of a stamps P0 only", vtime.MS(6), [2]bool{true, false}},
		{"release of b stamps P1 only", vtime.MS(7) + vtime.MS(1)/2, [2]bool{false, true}},
		{"completion of b stamps P1 only", vtime.MS(9), [2]bool{false, true}},
		{"P0 replenishment at 10 stamps P0 only", vtime.MS(12), [2]bool{true, false}},
		{"P1 replenishment at 15 stamps P1 only", vtime.MS(17), [2]bool{false, true}},
		{"silent boundary advance at 20 stamps P0 only", vtime.MS(22), [2]bool{true, false}},
	}
	for _, step := range steps {
		before := probe()
		sys.Run(vtime.Time(step.runTo))
		after := probe()
		for i := 0; i < 2; i++ {
			moved := after[i] != before[i]
			if moved != step.want[i] {
				t.Errorf("%s: partition %d stamp moved=%v, want %v (before=%v after=%v)",
					step.name, i, moved, step.want[i], before, after)
			}
		}
	}
}

// TestStampBumpSporadic pins the two sporadic-server bump sites: consuming
// budget schedules a future supply chunk (a discontinuous change to the
// supply stream the moment it happens), and the chunk's later delivery is a
// replenishment.
func TestStampBumpSporadic(t *testing.T) {
	spec := model.SystemSpec{
		Name: "sporadic-stamps",
		Partitions: []model.PartitionSpec{
			{Name: "S", Budget: vtime.MS(2), Period: vtime.MS(10), Server: server.Sporadic,
				Tasks: []model.TaskSpec{{Name: "s", Period: vtime.MS(50), WCET: vtime.MS(1), Offset: vtime.MS(2)}}},
		},
	}
	sys := buildStampSystem(t, spec)

	windows := []struct {
		name  string
		runTo vtime.Duration
		want  bool
	}{
		{"initial delivery", vtime.MS(1), true},
		{"quiet before execution", vtime.MS(2) - vtime.MS(1)/2, false},
		{"execution 2..3 schedules a chunk (consume bump)", vtime.MS(4), true},
		{"quiet until the period boundary", vtime.MS(9), false},
		{"silent boundary advance at 10", vtime.MS(11), true},
		{"chunk delivery at 12 replenishes", vtime.MS(13), true},
	}
	for _, w := range windows {
		before := sys.StateStamps()[0]
		sys.Run(vtime.Time(w.runTo))
		after := sys.StateStamps()[0]
		if moved := after != before; moved != w.want {
			t.Errorf("%s: stamp moved=%v, want %v", w.name, moved, w.want)
		}
	}
}
