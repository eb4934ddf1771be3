package partition

import (
	"reflect"
	"strings"
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

func TestNextLocalEvent(t *testing.T) {
	p := newPart(t)
	p.Local.ReleaseUpTo(0)
	// Next events: replenishment at 10ms, arrival at 5ms → 5ms.
	if got := p.Hot().NextEvent; got != vtime.Time(vtime.MS(5)) {
		t.Errorf("next event %v, want 5ms", got)
	}
	p.Local.ReleaseUpTo(vtime.Time(vtime.MS(5)))
	if got := p.Hot().NextEvent; got != vtime.Time(vtime.MS(10)) {
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

// TestTouchOnlyReads checks that the gather leaves a record as it found it,
// on a fresh two-task partition (the states-array branch): no arrival
// anchor is initialised early, which a spec transform that rewrites task
// offsets between build and run relies on.
func TestTouchOnlyReads(t *testing.T) {
	p, err := New("P", 1, vtime.MS(2), vtime.MS(10), server.Polling, []task.Task{
		{Name: "a", Period: vtime.MS(20), WCET: vtime.MS(1), Offset: vtime.MS(5)},
		{Name: "b", Period: vtime.MS(40), WCET: vtime.MS(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	local, srv := p.Local.SaveState(), p.Server.SaveState(nil)
	p.Touch()
	if got := p.Local.SaveState(); !reflect.DeepEqual(got, local) {
		t.Errorf("Touch changed the scheduler: %+v, was %+v", got, local)
	}
	if got := p.Server.SaveState(nil); !reflect.DeepEqual(got, srv) {
		t.Errorf("Touch changed the server: %+v, was %+v", got, srv)
	}
}

// deliveryReads names every field of the record that a delivery
// (Server.AdvanceTo, Local.ReleaseUpTo, Hot, the idle check) or the
// partition's next execution (Local.Run and its finish, Server.Consume)
// reads, as paths from Partition. A path element indexes the one element of
// an inline array; ".len" is a slice header's length word.
var deliveryReads = []string{
	"Server.remaining", "Server.lastReplenish", "Server.period", "Server.budget",
	"Server.policy", "Server.obs", "Server.tag", "Server.repl",
	"Local.states", "Local.state0.task.Period", "Local.state0.task.WCET",
	"Local.state0.task.Offset", "Local.state0.task.ExecFn", "Local.state0.task.PeriodFn",
	"Local.state0.nextArrival", "Local.state0.nextIndex", "Local.state0.pending",
	"Local.state0.head", "Local.state0.started", "Local.free", "Local.obs", "Local.tag",
	"Local.ready", "Local.pending0", "Local.free0", "Local.job0",
	"Local.lastJob", "Local.completed", "Local.OnComplete", "Local.Shuffle",
}

// touchReads names the words Partition.Touch loads, one entry per load.
var touchReads = []string{
	"Server.remaining", "Local.free.len", "Local.ready", "Local.job0.Index", "Local.completed",
	"Local.states.len", "Local.state0.task.Period", "Local.state0.nextArrival", "Local.state0.head",
}

// fieldSpan returns the offset from the start of a Partition and the size
// of the field a deliveryReads or touchReads path names. The top-level
// fields are exported and found with unsafe.Offsetof; the fields inside the
// server and the scheduler are unexported and found through reflect.
func fieldSpan(t *testing.T, path string) (off, size uintptr) {
	t.Helper()
	elems := strings.Split(path, ".")
	switch elems[0] {
	case "Server":
		off = unsafe.Offsetof(Partition{}.Server)
	case "Local":
		off = unsafe.Offsetof(Partition{}.Local)
	default:
		t.Fatalf("%s: path must start at Server or Local", path)
	}
	typ := reflect.TypeOf(Partition{})
	f, _ := typ.FieldByName(elems[0])
	typ, size = f.Type, f.Type.Size()
	for _, name := range elems[1:] {
		if typ.Kind() == reflect.Slice && name == "len" {
			off, size = off+8, 8
			break
		}
		if typ.Kind() == reflect.Array {
			typ = typ.Elem()
		}
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Fatalf("%s: %v has no field %s", path, typ, name)
		}
		off, typ, size = off+f.Offset, f.Type, f.Type.Size()
	}
	return off, size
}

// TestTouchCoversDeliveryLines pins the burst gather against the record
// layout. The engine touches each due record (Partition.Touch) before it
// delivers to any of them, so that delivery finds its lines in cache; a
// field moved onto a line Touch does not load would silently lose that.
// The test maps every field a delivery or an execution reads, and every
// word Touch loads, to its 64-byte line, and fails when a read line is
// not touched. It also checks that touchReads is what Touch loads: lowering
// any listed word must change Touch's sum.
func TestTouchCoversDeliveryLines(t *testing.T) {
	p := newPart(t)
	if addr := uintptr(unsafe.Pointer(p)); addr%64 != 0 {
		t.Fatalf("record at %#x is not line-aligned; the line map below assumes it is", addr)
	}
	touched := map[uintptr]bool{}
	for _, path := range touchReads {
		off, size := fieldSpan(t, path)
		if size != 4 && size != 8 {
			t.Fatalf("%s: a touched word must be 4 or 8 bytes, is %d", path, size)
		}
		touched[off/64] = true

		before := p.Touch()
		w := unsafe.Add(unsafe.Pointer(p), off)
		if size == 4 {
			*(*int32)(w)--
		} else {
			*(*int64)(w)--
		}
		changed := p.Touch() != before
		if size == 4 {
			*(*int32)(w)++
		} else {
			*(*int64)(w)++
		}
		if !changed {
			t.Errorf("%s: listed in touchReads, but Touch does not read it", path)
		}
	}
	for _, path := range deliveryReads {
		off, size := fieldSpan(t, path)
		for line := off / 64; line <= (off+size-1)/64; line++ {
			if !touched[line] {
				t.Errorf("%s (bytes %d–%d) is read on line %d, which Touch does not load", path, off, off+size-1, line)
			}
		}
	}
}
