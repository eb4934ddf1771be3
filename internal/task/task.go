// Package task implements the partition-local task model of the paper's
// Section II: sporadic tasks τ_{i,j} = (p_{i,j}, e_{i,j}) scheduled by a
// fixed-priority preemptive local scheduler inside their partition.
//
// A Task is the static description; the scheduler owns the runtime state
// (pending jobs, next arrival). Task priorities follow declaration order:
// the first task in a scheduler has the highest local priority, matching the
// paper's Pri(τ_{i,j}) > Pri(τ_{i,j+1}) convention.
package task

import (
	"fmt"

	"timedice/internal/vtime"
)

// Task describes a sporadic real-time task. Period is the minimum
// inter-arrival time p and WCET the worst-case execution time e. The zero
// Deadline means an implicit deadline equal to Period.
//
// ExecFn and PeriodFn, when non-nil, supply the actual execution demand and
// the actual inter-arrival gap for the k-th job (k counts from 0). They allow
// noise tasks to vary their timing "by up to 20%" and allow the covert-channel
// sender to modulate its budget consumption. Values returned are clamped to
// [1µs, WCET] and [Period·(anything ≥ 1µs)] respectively by the scheduler;
// a sender signaling bit 0 returns a tiny demand, bit 1 returns the WCET.
type Task struct {
	Name     string
	Period   vtime.Duration
	WCET     vtime.Duration
	Deadline vtime.Duration // 0 ⇒ implicit (= Period)
	Offset   vtime.Duration // release offset of the first job

	// ExecFn returns the execution demand of job k at its arrival instant.
	ExecFn func(k int64, arrival vtime.Time) vtime.Duration
	// PeriodFn returns the gap between the arrivals of jobs k and k+1.
	PeriodFn func(k int64, arrival vtime.Time) vtime.Duration
}

// EffectiveDeadline returns the task's relative deadline (Period when
// implicit).
func (t *Task) EffectiveDeadline() vtime.Duration {
	if t.Deadline > 0 {
		return t.Deadline
	}
	return t.Period
}

// Validate reports a descriptive error when the static parameters are
// unusable.
func (t *Task) Validate() error {
	switch {
	case t.Period <= 0:
		return fmt.Errorf("task %q: period must be positive, got %v", t.Name, t.Period)
	case t.WCET <= 0:
		return fmt.Errorf("task %q: WCET must be positive, got %v", t.Name, t.WCET)
	case t.WCET > t.Period:
		return fmt.Errorf("task %q: WCET %v exceeds period %v", t.Name, t.WCET, t.Period)
	case t.Deadline < 0 || t.Offset < 0:
		return fmt.Errorf("task %q: negative deadline or offset", t.Name)
	}
	return nil
}

// Job is one pending or running invocation of a task.
type Job struct {
	Task      *Task
	Index     int64 // k-th job of the task, from 0
	Arrival   vtime.Time
	Demand    vtime.Duration // total execution required
	Remaining vtime.Duration // execution still owed
}

// Completion is reported to observers when a job finishes.
type Completion struct {
	Job      Job
	Finish   vtime.Time
	Response vtime.Duration // Finish - Arrival
}

// state is one task within a Scheduler, stored by value in the scheduler's
// states slice: the scheduler's own copy of the task descriptor followed by
// its runtime bookkeeping, so a release reads both without a pointer chase.
type state struct {
	task        Task
	nextArrival vtime.Time
	nextIndex   int64
	// pending[head:] is the FIFO backlog of this task's jobs (front =
	// oldest). The head index makes popping the front O(1) without giving up
	// the slice's capacity; push compacts when the tail hits capacity, so the
	// steady state allocates nothing.
	pending []*Job
	head    int32
	started bool
}

// queue returns the live backlog, front first.
func (st *state) queue() []*Job { return st.pending[st.head:] }

func (st *state) push(j *Job) {
	if st.head > 0 && len(st.pending) == cap(st.pending) {
		n := copy(st.pending, st.pending[st.head:])
		for i := n; i < len(st.pending); i++ {
			st.pending[i] = nil
		}
		st.pending = st.pending[:n]
		st.head = 0
	}
	st.pending = append(st.pending, j)
}

// popFront removes and returns the oldest pending job.
func (st *state) popFront() *Job {
	j := st.pending[st.head]
	st.pending[st.head] = nil
	st.head++
	if int(st.head) == len(st.pending) {
		st.pending = st.pending[:0]
		st.head = 0
	}
	return j
}

// clear empties the backlog, keeping its capacity.
func (st *state) clear() {
	for i := range st.pending {
		st.pending[i] = nil
	}
	st.pending = st.pending[:0]
	st.head = 0
}

// arrivalAnchor lazily initializes the first arrival from the task's Offset.
// Laziness matters: transforms such as BLINDER's release quantization rewrite
// Offset after the system is built but before the simulation starts.
func (st *state) arrivalAnchor() vtime.Time {
	if !st.started {
		st.started = true
		st.nextArrival = vtime.Time(0).Add(st.task.Offset)
	}
	return st.nextArrival
}

// Observer receives job lifecycle callbacks from a Scheduler. It is the
// low-level feed of the telemetry event stream: the hierarchical engine
// installs itself on every partition's scheduler, tells the partitions apart
// by the tag it installed with, and forwards to the attached sink. Observer
// is separate from the public OnComplete callback so user code and telemetry
// never clobber each other.
type Observer interface {
	// JobReleased fires when a job arrives (is added to the backlog).
	JobReleased(tag int, j *Job)
	// JobDispatched fires when a job is granted the CPU; first is true on
	// the job's first-ever execution (false on a resume after preemption).
	JobDispatched(tag int, j *Job, at vtime.Time, first bool)
	// JobPreempted fires when a mid-execution job loses the CPU to another
	// job of the same partition. (Partition-level preemptions — the whole
	// partition losing the CPU — are reported by the engine, which is the
	// only layer that sees them.)
	JobPreempted(tag int, j *Job, at vtime.Time)
	// JobCompleted fires for every finished job, after OnComplete.
	JobCompleted(tag int, c Completion)
}

// Scheduler is a fixed-priority preemptive scheduler over one partition's
// tasks. It is driven by its partition's share of the CPU: the hierarchical
// engine tells it how much time passed while the partition was executing.
//
// A scheduler owns copies of its task descriptors and stores the per-task
// state by value. For the common single-task partition the descriptor, the
// state, the backlog and freelist arrays and the first job record all live
// inside the Scheduler itself, so a release touches one contiguous block
// (see partition.New, which embeds the scheduler in the partition's record).
// A Scheduler must not be copied by value after Init: its slices may point
// into its own inline storage.
type Scheduler struct {
	// states[0] is state0 for a single-task scheduler. The fields a release
	// reads (states, state0, the freelist, the observer, job0) come first
	// and in that order; the ones only execution reads follow.
	states []state
	state0 [1]state
	// free recycles completed Job records so the steady-state release path
	// allocates nothing. A recycled pointer is handed out again by a later
	// release: observers must not retain a *Job past their callback (the
	// Completion callbacks receive a value copy and are unaffected).
	free []*Job
	// obs, when non-nil, receives job lifecycle callbacks (see Observer)
	// with tag. The engine installs it through SetObserver; user code should
	// prefer OnComplete or a telemetry sink.
	obs Observer
	tag int32
	// ready counts pending jobs across all tasks: an O(1) HasReady probe.
	ready int32
	// Inline backing arrays of the first task's backlog and of the freelist,
	// and the job record that seeds the freelist.
	pending0 [1]*Job
	free0    [1]*Job
	job0     Job
	// lastJob is the most recently dispatched, still-unfinished job; it is
	// tracked only while an Observer is set (dispatch/preempt edge detection).
	lastJob   *Job
	completed int64
	// OnComplete, when non-nil, is invoked for every finished job.
	OnComplete func(Completion)
	// Shuffle, when non-nil, makes the local scheduler pick uniformly among
	// the tasks with pending jobs instead of the highest-priority one — a
	// TaskShuffler-style local randomization (Yoon et al., RTAS 2016, the
	// paper's reference [8]). It randomizes the order of local tasks but
	// cannot change WHEN the partition as a whole executes, so it does not
	// affect the partition-level covert channel (a negative result the
	// experiments demonstrate). The choice is re-drawn at every dispatch.
	Shuffle func(n int) int
}

// NewScheduler builds a local scheduler over copies of tasks. Task priority
// is the slice order (index 0 = highest). The tasks are validated.
func NewScheduler(tasks []Task) (*Scheduler, error) {
	s := new(Scheduler)
	if err := s.Init(tasks); err != nil {
		return nil, err
	}
	return s, nil
}

// Init makes the zero Scheduler s the scheduler NewScheduler(tasks) would
// return, in place. On error s is left unchanged.
func (s *Scheduler) Init(tasks []Task) error {
	for i := range tasks {
		if err := tasks[i].Validate(); err != nil {
			return err
		}
	}
	s.initStorage(len(tasks))
	for i := range tasks {
		s.states[i].task = tasks[i]
	}
	return nil
}

// initStorage sizes the states for n tasks, inline when n is one, and seeds
// the freelist with the inline job record.
func (s *Scheduler) initStorage(n int) {
	if n == 1 {
		s.states = s.state0[:]
	} else {
		s.states = make([]state, n)
	}
	if n > 0 {
		s.states[0].pending = s.pending0[:0]
	}
	s.free = append(s.free0[:0], &s.job0)
}

// SetObserver installs (or removes, with nil) the job lifecycle observer.
// Every callback passes tag back, so one observer can serve many schedulers.
func (s *Scheduler) SetObserver(o Observer, tag int) { s.obs, s.tag = o, int32(tag) }

// NumTasks returns the number of tasks.
func (s *Scheduler) NumTasks() int { return len(s.states) }

// Task returns the scheduler's live descriptor of task i (priority order).
// Hooks such as ExecFn set through it take effect from the next release.
func (s *Scheduler) Task(i int) *Task { return &s.states[i].task }

// Completed returns the number of jobs finished so far.
func (s *Scheduler) Completed() int64 { return s.completed }

// ReleaseUpTo releases every job whose arrival instant is <= now.
func (s *Scheduler) ReleaseUpTo(now vtime.Time) {
	for si := range s.states {
		st := &s.states[si]
		st.arrivalAnchor()
		for st.nextArrival <= now {
			arrival := st.nextArrival
			demand := st.task.WCET
			if st.task.ExecFn != nil {
				demand = st.task.ExecFn(st.nextIndex, arrival)
				if demand < vtime.Microsecond {
					demand = vtime.Microsecond
				}
				if demand > st.task.WCET {
					demand = st.task.WCET
				}
			}
			var j *Job
			if n := len(s.free); n > 0 {
				j = s.free[n-1]
				s.free = s.free[:n-1]
			} else {
				j = new(Job)
			}
			*j = Job{
				Task:      &st.task,
				Index:     st.nextIndex,
				Arrival:   arrival,
				Demand:    demand,
				Remaining: demand,
			}
			st.push(j)
			s.ready++
			if s.obs != nil {
				s.obs.JobReleased(int(s.tag), j)
			}
			gap := st.task.Period
			if st.task.PeriodFn != nil {
				gap = st.task.PeriodFn(st.nextIndex, arrival)
				if gap < vtime.Microsecond {
					gap = vtime.Microsecond
				}
			}
			st.nextIndex++
			st.nextArrival = arrival.Add(gap)
		}
	}
}

// NextArrival returns the earliest future job arrival, or vtime.Infinity.
func (s *Scheduler) NextArrival() vtime.Time {
	next := vtime.Infinity
	for i := range s.states {
		if a := s.states[i].arrivalAnchor(); a < next {
			next = a
		}
	}
	return next
}

// Current returns the job the partition would execute now (the oldest pending
// job of the highest-priority task with a backlog, or of a uniformly random
// backlogged task when Shuffle is set), or nil if the partition has no ready
// work.
func (s *Scheduler) Current() *Job {
	if s.Shuffle != nil {
		// Count the backlogged tasks, draw one, and find it in priority order.
		n := 0
		for i := range s.states {
			if len(s.states[i].queue()) > 0 {
				n++
			}
		}
		if n == 0 {
			return nil
		}
		k := s.Shuffle(n)
		for i := range s.states {
			if q := s.states[i].queue(); len(q) > 0 {
				if k == 0 {
					return q[0]
				}
				k--
			}
		}
		panic(fmt.Sprintf("task: Shuffle(%d) returned an index out of range", n))
	}
	for i := range s.states {
		if q := s.states[i].queue(); len(q) > 0 {
			return q[0]
		}
	}
	return nil
}

// HasReady reports whether any job is pending.
func (s *Scheduler) HasReady() bool { return s.ready > 0 }

// ReadyAndNext returns HasReady and NextArrival in one call, with a single
// pass over the task states. The engine reads both for every partition it
// touches when refreshing the hot-state arenas (partition.Hot), so the
// combined accessor halves the per-touch walk.
func (s *Scheduler) ReadyAndNext() (ready bool, next vtime.Time) {
	next = vtime.Infinity
	for i := range s.states {
		if a := s.states[i].arrivalAnchor(); a < next {
			next = a
		}
	}
	return s.ready > 0, next
}

// Backlog returns the total outstanding execution demand across all pending
// jobs.
func (s *Scheduler) Backlog() vtime.Duration {
	var sum vtime.Duration
	for i := range s.states {
		for _, j := range s.states[i].queue() {
			sum += j.Remaining
		}
	}
	return sum
}

// Run consumes up to d of CPU time starting at instant start, executing
// pending jobs in fixed-priority order. It does NOT release new arrivals;
// the engine guarantees no arrival falls strictly inside the slice it grants
// (slices end at the next event boundary). It returns the CPU time actually
// used, which is less than d only if the ready queue empties.
func (s *Scheduler) Run(start vtime.Time, d vtime.Duration) vtime.Duration {
	var used vtime.Duration
	for used < d {
		job := s.Current()
		if job == nil {
			break
		}
		if s.obs != nil && job != s.lastJob {
			if prev := s.lastJob; prev != nil && prev.Remaining > 0 {
				s.obs.JobPreempted(int(s.tag), prev, start.Add(used))
			}
			s.obs.JobDispatched(int(s.tag), job, start.Add(used), job.Remaining == job.Demand)
			s.lastJob = job
		}
		slice := (d - used).Min(job.Remaining)
		job.Remaining -= slice
		used += slice
		if job.Remaining == 0 {
			s.finish(job, start.Add(used))
		}
	}
	return used
}

// TakeInFlight returns the most recently dispatched still-unfinished job and
// forgets it, so the job's next dispatch is reported again. The engine calls
// it when the partition as a whole loses the CPU mid-job (a partition-level
// preemption). It returns nil when no job is mid-execution or no Observer is
// installed (the tracking only runs under an Observer).
func (s *Scheduler) TakeInFlight() *Job {
	j := s.lastJob
	s.lastJob = nil
	if j == nil || j.Remaining == 0 || j.Remaining == j.Demand {
		return nil
	}
	return j
}

// ShortestRemaining returns the remaining demand of the job that would run
// next, or vtime.Forever when idle. The engine uses it to bound a dispatch
// slice at the job-completion event.
func (s *Scheduler) ShortestRemaining() vtime.Duration {
	if job := s.Current(); job != nil {
		return job.Remaining
	}
	return vtime.Forever
}

func (s *Scheduler) finish(job *Job, at vtime.Time) {
	st := &s.states[s.indexOf(job.Task)]
	// The finished job is necessarily the front of its task's backlog.
	st.popFront()
	s.ready--
	s.completed++
	if s.lastJob == job {
		s.lastJob = nil
	}
	if s.OnComplete != nil || s.obs != nil {
		c := Completion{
			Job:      *job,
			Finish:   at,
			Response: at.Sub(job.Arrival),
		}
		if s.OnComplete != nil {
			s.OnComplete(c)
		}
		if s.obs != nil {
			s.obs.JobCompleted(int(s.tag), c)
		}
	}
	s.free = append(s.free, job)
}

func (s *Scheduler) indexOf(t *Task) int {
	for i := range s.states {
		if &s.states[i].task == t {
			return i
		}
	}
	panic("task: job for unknown task")
}

// Reset restores all tasks to their initial state (no pending jobs, first
// arrival at the task offset). Pending jobs are recycled into the freelist
// and every buffer keeps its capacity, so a reset scheduler replays a run
// without reallocating.
func (s *Scheduler) Reset() {
	for i := range s.states {
		st := &s.states[i]
		st.started = false
		st.nextArrival = 0
		st.nextIndex = 0
		s.free = append(s.free, st.queue()...)
		st.clear()
	}
	s.completed = 0
	s.ready = 0
	s.lastJob = nil
}
