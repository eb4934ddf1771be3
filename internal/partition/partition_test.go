package partition

import (
	"testing"
	"unsafe"

	"timedice/internal/server"
	"timedice/internal/task"
	"timedice/internal/vtime"
)

func newPart(t *testing.T) *Partition {
	t.Helper()
	p, err := New("P", 1, vtime.MS(2), vtime.MS(10), server.Polling,
		[]task.Task{{Name: "t", Period: vtime.MS(20), WCET: vtime.MS(1), Offset: vtime.MS(5)}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", 1, 3, 2, server.Polling, nil); err == nil {
		t.Error("budget above period accepted")
	}
	if _, err := New("x", 1, 1, 2, server.Polling,
		[]task.Task{{Name: "bad", Period: 0, WCET: 1}}); err == nil {
		t.Error("invalid task accepted")
	}
}

func TestActiveVsRunnable(t *testing.T) {
	p := newPart(t)
	// Budget full but the task arrives only at 5ms: active yet not runnable.
	p.Local.ReleaseUpTo(0)
	if !p.Active() {
		t.Error("fresh partition must be active")
	}
	if p.Runnable() {
		t.Error("no ready job yet: must not be runnable")
	}
	p.Local.ReleaseUpTo(vtime.Time(vtime.MS(5)))
	if !p.Runnable() {
		t.Error("job released: must be runnable")
	}
	p.Server.Consume(vtime.Time(vtime.MS(5)), vtime.MS(2))
	if p.Runnable() || p.Active() {
		t.Error("budget exhausted: inactive and not runnable")
	}
}

func TestHigherPriorityThan(t *testing.T) {
	a, _ := New("a", 1, 1, 2, server.Polling, nil)
	b, _ := New("b", 2, 1, 2, server.Polling, nil)
	if !a.HigherPriorityThan(b) || b.HigherPriorityThan(a) {
		t.Error("priority comparison broken")
	}
}

func TestNextLocalEvent(t *testing.T) {
	p := newPart(t)
	p.Local.ReleaseUpTo(0)
	// Next events: replenishment at 10ms, arrival at 5ms → 5ms.
	if got := p.NextLocalEvent(); got != vtime.Time(vtime.MS(5)) {
		t.Errorf("next event %v, want 5ms", got)
	}
	p.Local.ReleaseUpTo(vtime.Time(vtime.MS(5)))
	if got := p.NextLocalEvent(); got != vtime.Time(vtime.MS(10)) {
		t.Errorf("next event %v, want 10ms (replenishment)", got)
	}
}

func TestReset(t *testing.T) {
	p := newPart(t)
	p.Local.ReleaseUpTo(vtime.Time(vtime.MS(5)))
	p.Server.Consume(vtime.Time(vtime.MS(5)), vtime.MS(1))
	p.Reset()
	if p.Server.Remaining() != vtime.MS(2) || p.Local.HasReady() {
		t.Error("Reset incomplete")
	}
}

// TestSingleTaskPartitionIsOneRecord pins the delivery-path layout: a
// single-task partition under a boundary-replenished server is one
// allocation (partition, server, scheduler, task state and descriptor,
// first job), and that record fits six 64-byte cache lines, the size class
// it is allocated from being a multiple of the line.
func TestSingleTaskPartitionIsOneRecord(t *testing.T) {
	tasks := []task.Task{{Name: "t", Period: vtime.MS(20), WCET: vtime.MS(1)}}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := New("P", 1, vtime.MS(2), vtime.MS(10), server.Polling, tasks); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("New allocates %.0f objects, want the one record", allocs)
	}
	if size := unsafe.Sizeof(Partition{}); size > 6*64 {
		t.Errorf("record is %d bytes, want at most %d (six cache lines)", size, 6*64)
	}
	p, _ := New("P", 1, vtime.MS(2), vtime.MS(10), server.Polling, tasks)
	p.Local.ReleaseUpTo(0)
	if j := p.Local.Current(); j == nil || j.Task != p.Local.Task(0) {
		t.Fatalf("released job %+v does not run the record's own task descriptor", j)
	}
	clone := p.Clone()
	if clone.Local.Task(0) == p.Local.Task(0) || clone.Local.Current() == p.Local.Current() {
		t.Error("Clone shares the task descriptor or the pending job with the original")
	}
}
