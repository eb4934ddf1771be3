// Package partition ties together a priority, a budget server, and a local
// task scheduler into the real-time partition of the paper's system model
// (§II): Π_i = (Pri, B_i, T_i, {τ_{i,1}, ..., τ_{i,|Π_i|}}).
package partition

import (
	"fmt"

	"timedice/internal/server"
	"timedice/internal/task"
	"timedice/internal/vtime"
)

// Partition is one time partition. Partitions are compared by Priority;
// a numerically smaller Priority is a higher priority, matching the paper's
// Pri(Π_i) > Pri(Π_{i+1}) ordering when partitions are declared in index
// order. Priorities must be unique within a system.
//
// A Partition is one record: its server and its local scheduler are stored
// by value, and the scheduler holds, for a single-task partition, the task
// descriptor, its state and its first job inline. Delivering events to a due
// partition therefore reads one contiguous block of memory. The server's and
// the scheduler's fields sit at fixed offsets from the partition's address,
// so their loads wait on no other object; only the task state is reached
// through the scheduler's states header, inside the same record. Build one
// with New or Clone, use it by pointer, and never copy it by value: the
// scheduler's slices point into the record.
type Partition struct {
	Server server.Server
	// Index is the partition's position in its System's priority-ordered
	// slice; the engine assigns it. It sits between the server and the
	// scheduler, on the cache line an execution step reads first.
	Index    int
	Local    task.Scheduler
	Priority int
	Name     string
}

// New builds a partition with a budget server of maximum budget budget
// replenished every period under policy, and a local scheduler over copies of
// tasks, in decreasing local-priority order. Everything is built in place in
// the partition's record; the live task descriptors are Local.Task(j).
func New(name string, priority int, budget, period vtime.Duration, policy server.Policy, tasks []task.Task) (*Partition, error) {
	p := &Partition{Priority: priority, Name: name}
	if err := p.Server.Init(budget, period, policy); err != nil {
		return nil, fmt.Errorf("partition %q: %w", name, err)
	}
	if err := p.Local.Init(tasks); err != nil {
		return nil, fmt.Errorf("partition %q: %w", name, err)
	}
	return p, nil
}

// Active reports whether the partition has non-zero remaining budget
// (the paper's Definition of "active").
func (p *Partition) Active() bool { return p.Server.Active() }

// Runnable reports whether the partition could make progress if granted the
// CPU right now: it is active and has a ready job. Under the polling server
// the two coincide (idle budget is discarded immediately).
func (p *Partition) Runnable() bool { return p.Server.Active() && p.Local.HasReady() }

// Observer receives both lifecycle feeds of a partition: its local
// scheduler's job events and its server's budget events.
type Observer interface {
	task.Observer
	server.Observer
}

// SetObserver installs o (nil removes it) on the partition's server and local
// scheduler in one step, tagged with the partition's Index, so one observer
// can serve every partition of a system. The engine wires the telemetry
// plumbing through here so a partition stays the single assembly point for
// its server + scheduler pair.
func (p *Partition) SetObserver(o Observer) {
	p.Local.SetObserver(o, p.Index)
	p.Server.SetObserver(o, p.Index)
}

// Reset restores server and local-scheduler state for a fresh run.
func (p *Partition) Reset() {
	p.Server.Reset()
	p.Local.Reset()
}

// Clone returns an independent deep copy of the partition in a record of its
// own — cloned server, local scheduler and task descriptors — with no
// observer installed. The engine's Fork reinstalls its own observer on the
// copy.
func (p *Partition) Clone() *Partition {
	c := &Partition{Index: p.Index, Priority: p.Priority, Name: p.Name}
	p.Server.CloneInto(&c.Server)
	p.Local.CloneInto(&c.Local)
	return c
}

// Touch loads one word from every cache line of the record that a delivery
// (Server.AdvanceTo, Local.ReleaseUpTo, Hot) or the partition's next
// execution (Local.Run, Server.Consume) reads, and returns their sum; it
// changes nothing. The engine touches a whole burst of due partitions before
// delivering to any of them, so their cache misses overlap instead of
// waiting on each other. TestTouchCoversDeliveryLines pins the lines
// against the record layout.
func (p *Partition) Touch() int64 { return int64(p.Server.Remaining()) + p.Local.Touch() }

// HotState is the flat snapshot of the scheduling-hot scalars of one
// partition: everything the engine mirrors into its struct-of-arrays arenas
// after an event delivery or an execution slice. Gathering them in one call
// keeps the pointer chase per touched partition to a single visit of the
// server and local-scheduler structs.
type HotState struct {
	Remaining vtime.Duration // B_i(t)
	Deadline  vtime.Time     // d_{i,t} = r_{i,t} + T_i
	Supply    vtime.Time     // earliest future budget gain (sporadic chunks may precede Deadline)
	NextEvent vtime.Time     // earliest own scheduling event: min(Supply, next task arrival)
	Runnable  bool           // active ∧ ready work
}

// Hot assembles the HotState snapshot with one pass over the local
// scheduler's task states.
func (p *Partition) Hot() HotState {
	rem := p.Server.Remaining()
	supply := p.Server.NextReplenish()
	ready, arrival := p.Local.ReadyAndNext()
	next := supply
	if arrival < next {
		next = arrival
	}
	return HotState{
		Remaining: rem,
		Deadline:  p.Server.Deadline(),
		Supply:    supply,
		NextEvent: next,
		Runnable:  rem > 0 && ready,
	}
}
