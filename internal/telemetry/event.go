// Package telemetry is the simulator's observability layer: a structured
// stream of typed scheduler events, a metrics registry whose histograms are
// stats.Sketch quantile sketches, and exporters for the Chrome trace-event
// format (loadable in Perfetto / chrome://tracing), JSONL event logs, and
// text/CSV metrics dumps.
//
// The package deliberately depends only on vtime, stats and the standard
// library so every layer of the simulator (engine, servers, local
// schedulers, policies) can emit into it without import cycles. Emission is pull-free and
// allocation-free: producers call Sink.Event with an Event value; with no
// sink attached the producers skip the call entirely (a nil check), so the
// telemetry-disabled hot path costs nothing.
//
// # Event taxonomy
//
// Every Event carries a Kind, the virtual Time it happened, and a subset of
// the remaining fields depending on the kind:
//
//	KindTaskArrival      a job was released. Partition, Task, Job.
//	KindTaskStart        a job was dispatched on the CPU. Partition, Task,
//	                     Job; Aux=1 for the job's first dispatch, 0 for a
//	                     resume after preemption.
//	KindTaskPreempt      a mid-execution job lost the CPU (to a local
//	                     higher-priority job or to a partition switch).
//	                     Partition, Task, Job.
//	KindTaskComplete     a job finished. Partition, Task, Job; Dur=response
//	                     time (finish − arrival).
//	KindDeadlineMiss     a job finished after its absolute deadline.
//	                     Partition, Task, Job; Dur=lateness.
//	KindBudgetDeplete    a partition's budget reached zero: consumed by
//	                     execution (Dur=0, Aux=0) or discarded by an idle
//	                     polling server (Dur=discarded amount, Aux=1).
//	                     Partition.
//	KindBudgetReplenish  a partition's budget was replenished. Partition;
//	                     Dur=amount added, Aux=remaining budget (µs) after.
//	KindDecision         a global scheduling decision. Partition=picked
//	                     partition index or -1 for idle; Aux=candidate-set
//	                     size when the policy reports it, else -1.
//	KindInversionOpen    a priority-inversion window opened: the decision
//	                     ran a partition (or idled) while a strictly
//	                     higher-priority partition was runnable. Partition=
//	                     the picked partition (-1 for idle inversion).
//	KindInversionClose   the inversion window closed. Dur=window length.
//	KindSlice            one maximal execution interval. Partition (or -1
//	                     for idle), Dur=length. Mirrors engine.Segment.
//
// Events are totally ordered by emission; within one instant the order is
// the engine's processing order (replenishments/arrivals, then the decision,
// then execution effects).
package telemetry

import (
	"fmt"

	"timedice/internal/vtime"
)

// Kind discriminates Event records.
type Kind uint8

// Event kinds. See the package comment for the per-kind field semantics.
const (
	KindTaskArrival Kind = iota + 1
	KindTaskStart
	KindTaskPreempt
	KindTaskComplete
	KindDeadlineMiss
	KindBudgetDeplete
	KindBudgetReplenish
	KindDecision
	KindInversionOpen
	KindInversionClose
	KindSlice
	kindEnd // one past the last valid kind
)

var kindNames = [...]string{
	KindTaskArrival:     "arrival",
	KindTaskStart:       "start",
	KindTaskPreempt:     "preempt",
	KindTaskComplete:    "complete",
	KindDeadlineMiss:    "deadline_miss",
	KindBudgetDeplete:   "budget_deplete",
	KindBudgetReplenish: "budget_replenish",
	KindDecision:        "decision",
	KindInversionOpen:   "inversion_open",
	KindInversionClose:  "inversion_close",
	KindSlice:           "slice",
}

// String returns the kind's wire name (the JSONL "k" field).
func (k Kind) String() string {
	if k > 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindFromString is the inverse of Kind.String; it returns 0 for an unknown
// name.
func KindFromString(s string) Kind {
	for k := Kind(1); k < kindEnd; k++ {
		if kindNames[k] == s {
			return k
		}
	}
	return 0
}

// Event is one structured telemetry record. It is a plain value — emitting
// one allocates nothing.
type Event struct {
	Time vtime.Time
	Kind Kind
	// Partition is the index of the partition concerned in the system's
	// priority-ordered slice, or -1 when no partition applies (idle slices,
	// idle decisions).
	Partition int
	// Task is the task name for task-lifecycle kinds, empty otherwise. It
	// aliases the task's static name; no copy is made.
	Task string
	// Job is the per-task job index (k-th release, from 0) for task kinds.
	Job int64
	// Dur is the kind-specific duration payload (response time, slice
	// length, inversion-window length, replenished amount, ...).
	Dur vtime.Duration
	// Aux is a kind-specific extra integer (see the package comment).
	Aux int64
}

// Sink receives emitted events. Implementations are invoked synchronously
// from the simulation loop and must not retain pointers into the engine;
// Event values may be retained freely.
//
// Sinks are not required to be goroutine-safe: one simulated system emits
// from a single goroutine. Sharing one sink between concurrently running
// systems requires external locking.
type Sink interface {
	Event(Event)
}

// Func adapts a plain function to a Sink, for quick inline subscriptions.
type Func func(Event)

// Event implements Sink.
func (f Func) Event(e Event) { f(e) }

// Multi fans every event out to each member sink in order.
type Multi []Sink

// Event implements Sink.
func (m Multi) Event(e Event) {
	for _, s := range m {
		s.Event(e)
	}
}

// Recorder is an in-memory sink: it appends every event to a slice. Use it
// when an exporter needs the whole stream at once (e.g. WriteChromeTrace).
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Event implements Sink.
func (r *Recorder) Event(e Event) { r.events = append(r.events, e) }

// Events returns the recorded stream in emission order. The slice is owned
// by the recorder; callers must not mutate it.
func (r *Recorder) Events() []Event { return r.events }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Reset discards all recorded events, keeping the backing capacity.
func (r *Recorder) Reset() { r.events = r.events[:0] }

// Filter is a sink decorator passing through only events whose kind is in
// the set, for cheap subscriptions ("deadline misses only").
type Filter struct {
	Next  Sink
	Kinds map[Kind]bool
}

// NewFilter builds a filter around next keeping only the given kinds.
func NewFilter(next Sink, kinds ...Kind) *Filter {
	set := make(map[Kind]bool, len(kinds))
	for _, k := range kinds {
		set[k] = true
	}
	return &Filter{Next: next, Kinds: set}
}

// Event implements Sink.
func (f *Filter) Event(e Event) {
	if f.Kinds[e.Kind] {
		f.Next.Event(e)
	}
}
