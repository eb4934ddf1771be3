package task

// Snapshot/restore support: a Scheduler's dynamic state as plain values, plus
// deep cloning for engine forks. Only the runtime bookkeeping is captured —
// the static Task descriptors are shared configuration the state is restored
// against, and ExecFn/PeriodFn closures are part of that configuration (a
// scheduler built without them cannot be restored into one that has them and
// vice versa; the engine's configuration fingerprint does not cover closure
// identity, so snapshot users keep closure-free systems, which everything
// model/gen-built satisfies).

import (
	"fmt"

	"timedice/internal/vtime"
)

// JobState is the serializable state of one pending job.
type JobState struct {
	Index     int64
	Arrival   vtime.Time
	Demand    vtime.Duration
	Remaining vtime.Duration
}

// TaskState is the dynamic state of one task within a Scheduler. Pending is
// the FIFO backlog, oldest job first.
type TaskState struct {
	Started     bool
	NextArrival vtime.Time
	NextIndex   int64
	Pending     []JobState
}

// SchedulerState is the dynamic state of a Scheduler. InFlightTask and
// InFlightJob identify the most recently dispatched, still-unfinished job
// (the preemption-edge tracking state) by task position and job index; both
// are -1 when no job is in flight.
type SchedulerState struct {
	Completed    int64
	InFlightTask int64
	InFlightJob  int64
	Tasks        []TaskState
}

// SaveState captures the scheduler's dynamic state. The scheduler is not
// mutated. Allocates; snapshot paths only.
func (s *Scheduler) SaveState() SchedulerState {
	out := SchedulerState{
		Completed:    s.completed,
		InFlightTask: -1,
		InFlightJob:  -1,
		Tasks:        make([]TaskState, len(s.states)),
	}
	for ti := range s.states {
		st := &s.states[ti]
		ts := TaskState{Started: st.started, NextArrival: st.nextArrival, NextIndex: st.nextIndex}
		for _, j := range st.queue() {
			if j == s.lastJob {
				out.InFlightTask, out.InFlightJob = int64(ti), j.Index
			}
			ts.Pending = append(ts.Pending, JobState{
				Index: j.Index, Arrival: j.Arrival, Demand: j.Demand, Remaining: j.Remaining,
			})
		}
		out.Tasks[ti] = ts
	}
	return out
}

// CheckState reports whether st is a valid state for this scheduler's task
// set. It accepts exactly the states SaveState can produce given the same
// configuration, so decoders can validate untrusted input before mutating
// anything.
func (s *Scheduler) CheckState(st SchedulerState) error {
	if len(st.Tasks) != len(s.states) {
		return fmt.Errorf("task: state covers %d tasks, scheduler has %d", len(st.Tasks), len(s.states))
	}
	if st.Completed < 0 {
		return fmt.Errorf("task: negative completed count %d", st.Completed)
	}
	if st.InFlightTask < -1 || st.InFlightTask >= int64(len(s.states)) {
		return fmt.Errorf("task: in-flight task %d out of range", st.InFlightTask)
	}
	if (st.InFlightTask < 0) != (st.InFlightJob < 0) {
		return fmt.Errorf("task: in-flight task %d and job %d must both be set or both be -1",
			st.InFlightTask, st.InFlightJob)
	}
	inFlightFound := st.InFlightTask < 0
	for ti, ts := range st.Tasks {
		tk := &s.states[ti].task
		if !ts.Started {
			if len(ts.Pending) > 0 || ts.NextIndex != 0 || ts.NextArrival != 0 {
				return fmt.Errorf("task %q: unstarted task with pending/index/arrival state", tk.Name)
			}
			continue
		}
		if ts.NextArrival < 0 || ts.NextIndex < 0 {
			return fmt.Errorf("task %q: negative next arrival or index", tk.Name)
		}
		prevIdx := int64(-1)
		prevArr := vtime.Time(-1)
		for _, j := range ts.Pending {
			if j.Index <= prevIdx || j.Index >= ts.NextIndex {
				return fmt.Errorf("task %q: pending job index %d out of order or >= next index %d",
					tk.Name, j.Index, ts.NextIndex)
			}
			if j.Arrival < prevArr || j.Arrival < 0 {
				return fmt.Errorf("task %q: pending job %d arrival %v out of order", tk.Name, j.Index, j.Arrival)
			}
			if j.Demand < vtime.Microsecond || j.Demand > tk.WCET {
				return fmt.Errorf("task %q: job %d demand %v outside [1µs, %v]", tk.Name, j.Index, j.Demand, tk.WCET)
			}
			if j.Remaining <= 0 || j.Remaining > j.Demand {
				return fmt.Errorf("task %q: job %d remaining %v outside (0, %v]", tk.Name, j.Index, j.Remaining, j.Demand)
			}
			if int64(ti) == st.InFlightTask && j.Index == st.InFlightJob {
				inFlightFound = true
			}
			prevIdx, prevArr = j.Index, j.Arrival
		}
	}
	if !inFlightFound {
		return fmt.Errorf("task: in-flight job %d not pending in task %d", st.InFlightJob, st.InFlightTask)
	}
	return nil
}

// LoadState restores a state captured by SaveState on a scheduler with the
// same task set. On error the scheduler is unchanged. Current pending jobs
// are recycled into the freelist, so a load allocates only when the restored
// backlog exceeds every previous high-water mark. No Observer callbacks fire.
func (s *Scheduler) LoadState(st SchedulerState) error {
	if err := s.CheckState(st); err != nil {
		return err
	}
	for i := range s.states {
		stt := &s.states[i]
		s.free = append(s.free, stt.queue()...)
		stt.clear()
	}
	s.completed = st.Completed
	s.ready = 0
	s.lastJob = nil
	for ti, ts := range st.Tasks {
		stt := &s.states[ti]
		stt.started = ts.Started
		stt.nextArrival = ts.NextArrival
		stt.nextIndex = ts.NextIndex
		for _, js := range ts.Pending {
			var j *Job
			if n := len(s.free); n > 0 {
				j = s.free[n-1]
				s.free = s.free[:n-1]
			} else {
				j = new(Job)
			}
			*j = Job{Task: &stt.task, Index: js.Index, Arrival: js.Arrival, Demand: js.Demand, Remaining: js.Remaining}
			stt.push(j)
			s.ready++
			if int64(ti) == st.InFlightTask && js.Index == st.InFlightJob {
				s.lastJob = j
			}
		}
	}
	return nil
}

// CloneInto makes the zero Scheduler dst an independent deep copy of s, in
// place: its own copies of the task descriptors (ExecFn, PeriodFn and the
// OnComplete and Shuffle callbacks are shared, being configuration), its own
// task states and job records, sharing no mutable memory with s. The
// Observer is not carried over; the copy's owner installs its own.
func (s *Scheduler) CloneInto(dst *Scheduler) {
	dst.initStorage(len(s.states))
	dst.OnComplete = s.OnComplete
	dst.Shuffle = s.Shuffle
	dst.completed = s.completed
	dst.ready = s.ready
	for i := range s.states {
		st, ns := &s.states[i], &dst.states[i]
		ns.task = st.task
		ns.started = st.started
		ns.nextArrival = st.nextArrival
		ns.nextIndex = st.nextIndex
		for _, j := range st.queue() {
			var nj *Job
			if n := len(dst.free); n > 0 {
				nj = dst.free[n-1]
				dst.free = dst.free[:n-1]
			} else {
				nj = new(Job)
			}
			*nj = *j
			nj.Task = &ns.task
			ns.push(nj)
			if j == s.lastJob {
				dst.lastJob = nj
			}
		}
	}
}
