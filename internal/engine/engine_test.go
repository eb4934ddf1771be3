package engine_test

import (
	"slices"
	"testing"

	"timedice/internal/engine"
	"timedice/internal/model"
	"timedice/internal/partition"
	"timedice/internal/rng"
	"timedice/internal/sched"
	"timedice/internal/server"
	"timedice/internal/vtime"
)

// buildTwo builds a 2-partition system: P0 (B=2,T=10) with one task (e=2,p=10)
// and P1 (B=4,T=20) with one task (e=4,p=20).
func buildTwo(t *testing.T, policy engine.GlobalPolicy) *engine.System {
	t.Helper()
	spec := model.SystemSpec{
		Name: "two",
		Partitions: []model.PartitionSpec{
			{Name: "P0", Budget: vtime.MS(2), Period: vtime.MS(10),
				Tasks: []model.TaskSpec{{Name: "a", Period: vtime.MS(10), WCET: vtime.MS(2)}}},
			{Name: "P1", Budget: vtime.MS(4), Period: vtime.MS(20),
				Tasks: []model.TaskSpec{{Name: "b", Period: vtime.MS(20), WCET: vtime.MS(4)}}},
		},
	}
	built, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := engine.New(built.Partitions, policy, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewValidation(t *testing.T) {
	if _, err := engine.New(nil, sched.FixedPriority{}, nil); err == nil {
		t.Error("empty partition list accepted")
	}
	p1, _ := partition.New("a", 1, server.MustNew(1, 2, server.Polling), nil)
	p2, _ := partition.New("b", 1, server.MustNew(1, 2, server.Polling), nil)
	if _, err := engine.New([]*partition.Partition{p1, p2}, sched.FixedPriority{}, nil); err == nil {
		t.Error("duplicate priorities accepted")
	}
	if _, err := engine.New([]*partition.Partition{p1}, nil, nil); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestPrioritySortOnConstruction(t *testing.T) {
	pLow, _ := partition.New("low", 5, server.MustNew(1, 10, server.Polling), nil)
	pHigh, _ := partition.New("high", 1, server.MustNew(1, 10, server.Polling), nil)
	sys, err := engine.New([]*partition.Partition{pLow, pHigh}, sched.FixedPriority{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Partitions[0] != pHigh || pHigh.Index != 0 || pLow.Index != 1 {
		t.Error("partitions not sorted by priority")
	}
}

func TestFixedPrioritySchedule(t *testing.T) {
	sys := buildTwo(t, sched.FixedPriority{})
	var segs []engine.Segment
	sys.TraceFn = func(s engine.Segment) { segs = append(segs, s) }
	sys.Run(vtime.Time(vtime.MS(20)))

	// Expected: P0 runs [0,2), P1 [2,6), idle [6,10), P0 [10,12), idle [12,20).
	want := []engine.Segment{
		{Start: 0, End: vtime.Time(vtime.MS(2)), Partition: 0},
		{Start: vtime.Time(vtime.MS(2)), End: vtime.Time(vtime.MS(6)), Partition: 1},
		{Start: vtime.Time(vtime.MS(6)), End: vtime.Time(vtime.MS(10)), Partition: -1},
		{Start: vtime.Time(vtime.MS(10)), End: vtime.Time(vtime.MS(12)), Partition: 0},
		{Start: vtime.Time(vtime.MS(12)), End: vtime.Time(vtime.MS(20)), Partition: -1},
	}
	if len(segs) != len(want) {
		t.Fatalf("segments: got %d %v, want %d", len(segs), segs, len(want))
	}
	for i, w := range want {
		if segs[i] != w {
			t.Errorf("segment %d = %+v, want %+v", i, segs[i], w)
		}
	}
}

func TestCountersAndAccounting(t *testing.T) {
	sys := buildTwo(t, sched.FixedPriority{})
	horizon := vtime.Time(vtime.MS(1000))
	sys.Run(horizon)
	c := sys.Counters
	if c.Decisions == 0 || c.Switches == 0 {
		t.Fatal("no decisions/switches recorded")
	}
	if got := c.BusyTime + c.IdleTime; got != vtime.Duration(horizon) {
		t.Errorf("busy+idle = %v, want %v", got, horizon)
	}
	// P0 runs 2ms per 10ms, P1 4ms per 20ms → busy = 40% of 1s.
	if c.BusyTime != vtime.MS(400) {
		t.Errorf("busy = %v, want 400ms", c.BusyTime)
	}
	if sys.PartitionTime(0) != vtime.MS(200) || sys.PartitionTime(1) != vtime.MS(200) {
		t.Errorf("per-partition time: %v, %v", sys.PartitionTime(0), sys.PartitionTime(1))
	}
}

func TestSegmentsContiguous(t *testing.T) {
	sys := buildTwo(t, sched.FixedPriority{})
	var prevEnd vtime.Time
	sys.TraceFn = func(s engine.Segment) {
		if s.Start != prevEnd {
			t.Fatalf("gap in trace: segment starts at %v, previous ended at %v", s.Start, prevEnd)
		}
		if s.End < s.Start {
			t.Fatalf("negative segment %+v", s)
		}
		prevEnd = s.End
	}
	sys.Run(vtime.Time(vtime.MS(500)))
	if prevEnd != vtime.Time(vtime.MS(500)) {
		t.Errorf("trace ends at %v, want 500ms", prevEnd)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() [5]int64 {
		sys := buildTwo(t, sched.FixedPriority{})
		sys.Run(vtime.Time(vtime.MS(777)))
		c := sys.Counters
		return [5]int64{c.Decisions, c.Switches, c.IdleDecisions, int64(c.BusyTime), int64(c.IdleTime)}
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs diverged: %v vs %v", a, b)
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	sys := buildTwo(t, sched.FixedPriority{})
	sys.Run(vtime.Time(vtime.MS(100)))
	sys.Reset()
	if sys.Now() != 0 || sys.Counters.Decisions != 0 || sys.PartitionTime(0) != 0 {
		t.Fatal("Reset incomplete")
	}
	// The re-run reproduces the same schedule.
	var segs []engine.Segment
	sys.TraceFn = func(s engine.Segment) { segs = append(segs, s) }
	sys.Run(vtime.Time(vtime.MS(10)))
	if len(segs) == 0 || segs[0].Partition != 0 || segs[0].End != vtime.Time(vtime.MS(2)) {
		t.Errorf("post-reset schedule wrong: %+v", segs)
	}
}

func TestRunnableOrder(t *testing.T) {
	sys := buildTwo(t, sched.FixedPriority{})
	// Partition state is mutated behind the engine's back here, which the
	// runnable bitset cannot observe; the scan path re-derives runnability
	// on every call and is the documented escape hatch for this.
	sys.SetScanStepping(true)
	// At t=0 both are runnable, in priority order.
	for _, p := range sys.Partitions {
		p.Server.AdvanceTo(0)
		p.Local.ReleaseUpTo(0)
	}
	r := sys.Runnable()
	if len(r) != 2 || r[0].Index != 0 || r[1].Index != 1 {
		t.Errorf("runnable = %v", r)
	}
}

// TestRunnableMaskMatchesScan pins the indexed-mode Runnable (bitset walk)
// to the linear-scan reference on an engine-driven schedule: after every
// segment the two must agree element for element.
func TestRunnableMaskMatchesScan(t *testing.T) {
	sys := buildTwo(t, sched.FixedPriority{})
	sys.TraceFn = func(engine.Segment) {
		masked := sys.Runnable()
		got := make([]int, len(masked))
		for i, p := range masked {
			got[i] = p.Index
		}
		var want []int
		for _, p := range sys.Partitions {
			if p.Runnable() {
				want = append(want, p.Index)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("at %v: mask runnable %v, scan runnable %v", sys.Now(), got, want)
		}
	}
	sys.Run(vtime.Time(vtime.MS(500)))
}

func TestTDMAIsolation(t *testing.T) {
	// Under TDMA, each partition only ever runs inside its own slot.
	spec := model.SystemSpec{
		Name: "tdma",
		Partitions: []model.PartitionSpec{
			{Name: "A", Budget: vtime.MS(2), Period: vtime.MS(10),
				Tasks: []model.TaskSpec{{Name: "a", Period: vtime.MS(10), WCET: vtime.MS(2)}}},
			{Name: "B", Budget: vtime.MS(3), Period: vtime.MS(10),
				Tasks: []model.TaskSpec{{Name: "b", Period: vtime.MS(10), WCET: vtime.MS(3)}}},
		},
	}
	built, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := sched.NewTDMA(built.Partitions)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Frame() != vtime.MS(10) {
		t.Fatalf("frame = %v, want 10ms", pol.Frame())
	}
	sys, err := engine.New(built.Partitions, pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys.TraceFn = func(s engine.Segment) {
		if s.Partition < 0 {
			return
		}
		off := vtime.Duration(int64(s.Start) % int64(vtime.MS(10)))
		endOff := off + s.End.Sub(s.Start)
		switch s.Partition {
		case 0:
			if off < 0 || endOff > vtime.MS(2) {
				t.Fatalf("A ran outside its slot: %+v", s)
			}
		case 1:
			if off < vtime.MS(2) || endOff > vtime.MS(5) {
				t.Fatalf("B ran outside its slot: %+v", s)
			}
		}
	}
	sys.Run(vtime.Time(vtime.MS(200)))
	// Both partitions still get their full budget.
	if sys.PartitionTime(0) != vtime.MS(40) || sys.PartitionTime(1) != vtime.MS(60) {
		t.Errorf("TDMA partition times: %v, %v", sys.PartitionTime(0), sys.PartitionTime(1))
	}
}

// misbehavingPolicy returns the LOWEST-priority partition regardless of
// runnability — exercising the engine's defensive used==0 path.
type misbehavingPolicy struct{}

func (misbehavingPolicy) Name() string            { return "misbehaving" }
func (misbehavingPolicy) Quantum() vtime.Duration { return vtime.Millisecond }
func (m misbehavingPolicy) Pick(sys *engine.System, _ vtime.Time) *partition.Partition {
	return sys.Partitions[len(sys.Partitions)-1]
}

func TestEngineSurvivesMisbehavingPolicy(t *testing.T) {
	sys := buildTwo(t, misbehavingPolicy{})
	// The policy insists on P1 even when it has no ready work or budget;
	// the engine must keep time moving and account the slack as idle.
	sys.Run(vtime.Time(vtime.MS(200)))
	if sys.Now() != vtime.Time(vtime.MS(200)) {
		t.Fatalf("simulation stalled at %v", sys.Now())
	}
	c := sys.Counters
	if c.BusyTime+c.IdleTime != vtime.MS(200) {
		t.Errorf("accounting broken: busy %v + idle %v", c.BusyTime, c.IdleTime)
	}
	// P1 can still never exceed its budget ratio.
	if share := sys.PartitionTime(1).Seconds() / 0.2; share > 0.2+1e-9 {
		t.Errorf("P1 share %.4f above budget ratio", share)
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	sys := buildTwo(t, sched.FixedPriority{})
	sys.RunFor(vtime.MS(30))
	if sys.Now() != vtime.Time(vtime.MS(30)) {
		t.Errorf("now = %v", sys.Now())
	}
	sys.RunFor(vtime.MS(15))
	if sys.Now() != vtime.Time(vtime.MS(45)) {
		t.Errorf("now = %v", sys.Now())
	}
}

func TestMisbehavingPolicyCannotOverdrawBudget(t *testing.T) {
	// A partition whose task outlasts its budget stays ready while inactive;
	// a policy that insists on running it must not overdraw the budget (the
	// engine clamps execution to the remaining budget).
	spec := model.SystemSpec{
		Name: "overrun",
		Partitions: []model.PartitionSpec{
			{Name: "P0", Budget: vtime.MS(2), Period: vtime.MS(10),
				Tasks: []model.TaskSpec{{Name: "a", Period: vtime.MS(10), WCET: vtime.MS(2)}}},
			{Name: "P1", Budget: vtime.MS(4), Period: vtime.MS(20),
				Tasks: []model.TaskSpec{{Name: "b", Period: vtime.MS(20), WCET: vtime.MS(6)}}},
		},
	}
	built, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := engine.New(built.Partitions, misbehavingPolicy{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(vtime.Time(vtime.MS(500))) // must not panic
	if share := sys.PartitionTime(1).Seconds() / 0.5; share > 0.2+1e-9 {
		t.Errorf("P1 overdrew its budget: share %.4f", share)
	}
}
