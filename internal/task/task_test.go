package task

import (
	"testing"

	"timedice/internal/vtime"
)

func mustScheduler(t *testing.T, tasks []Task) *Scheduler {
	t.Helper()
	s := new(Scheduler)
	if err := s.Init(tasks); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		task Task
		ok   bool
	}{
		{"valid", Task{Name: "a", Period: vtime.MS(10), WCET: vtime.MS(2)}, true},
		{"zero period", Task{Name: "a", WCET: vtime.MS(2)}, false},
		{"zero wcet", Task{Name: "a", Period: vtime.MS(10)}, false},
		{"wcet > period", Task{Name: "a", Period: vtime.MS(1), WCET: vtime.MS(2)}, false},
		{"negative offset", Task{Name: "a", Period: vtime.MS(10), WCET: vtime.MS(1), Offset: -1}, false},
	}
	for _, c := range cases {
		if err := c.task.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestEffectiveDeadline(t *testing.T) {
	a := Task{Period: vtime.MS(10), WCET: vtime.MS(1)}
	if a.EffectiveDeadline() != vtime.MS(10) {
		t.Error("implicit deadline should equal period")
	}
	a.Deadline = vtime.MS(7)
	if a.EffectiveDeadline() != vtime.MS(7) {
		t.Error("explicit deadline ignored")
	}
}

func TestReleaseAndRun(t *testing.T) {
	tk := Task{Name: "a", Period: vtime.MS(10), WCET: vtime.MS(3)}
	s := mustScheduler(t, []Task{tk})

	s.ReleaseUpTo(0)
	if !s.HasReady() {
		t.Fatal("job at t=0 not released")
	}
	if got := s.ShortestRemaining(); got != vtime.MS(3) {
		t.Errorf("remaining = %v, want 3ms", got)
	}
	used := s.Run(0, vtime.MS(2))
	if used != vtime.MS(2) {
		t.Errorf("used = %v", used)
	}
	if got := s.ShortestRemaining(); got != vtime.MS(1) {
		t.Errorf("remaining after partial run = %v", got)
	}
	var done []Completion
	s.OnComplete = func(c Completion) { done = append(done, c) }
	used = s.Run(vtime.Time(vtime.MS(5)), vtime.MS(10))
	if used != vtime.MS(1) {
		t.Errorf("second run used %v, want 1ms (queue empties)", used)
	}
	if len(done) != 1 {
		t.Fatalf("completions = %d", len(done))
	}
	if done[0].Response != vtime.MS(6) {
		t.Errorf("response = %v, want 6ms", done[0].Response)
	}
	if s.Completed() != 1 {
		t.Error("Completed counter")
	}
}

func TestFixedPriorityPreemptionOrder(t *testing.T) {
	hi := Task{Name: "hi", Period: vtime.MS(10), WCET: vtime.MS(1)}
	lo := Task{Name: "lo", Period: vtime.MS(20), WCET: vtime.MS(5)}
	s := mustScheduler(t, []Task{hi, lo})
	s.ReleaseUpTo(0)
	if s.Current().Task != s.Task(0) {
		t.Fatal("highest-priority task should run first")
	}
	s.Run(0, vtime.MS(1)) // finish hi
	if s.Current().Task != s.Task(1) {
		t.Fatal("lower-priority task should run next")
	}
	// hi arrives again at 10ms: it must preempt lo's position at the head.
	s.Run(vtime.Time(vtime.MS(1)), vtime.MS(2))
	s.ReleaseUpTo(vtime.Time(vtime.MS(10)))
	if s.Current().Task != s.Task(0) {
		t.Fatal("arrival of hi must take the head of the ready order")
	}
}

func TestBacklogFIFOWithinTask(t *testing.T) {
	tk := Task{Name: "a", Period: vtime.MS(10), WCET: vtime.MS(8)}
	s := mustScheduler(t, []Task{tk})
	s.ReleaseUpTo(vtime.Time(vtime.MS(25))) // releases jobs at 0, 10, 20
	var responses []vtime.Duration
	s.OnComplete = func(c Completion) { responses = append(responses, c.Response) }
	if got := backlog(s); got != vtime.MS(24) {
		t.Fatalf("backlog = %v, want 24ms", got)
	}
	s.Run(vtime.Time(vtime.MS(25)), vtime.MS(24))
	if len(responses) != 3 {
		t.Fatalf("completions = %d, want 3", len(responses))
	}
	// Jobs must finish in arrival order: responses strictly ordered by index.
	// job0 arrival 0 finishes at 33 → 33ms; job1 arrival 10 at 41 → 31ms;
	// job2 arrival 20 at 49 → 29ms.
	want := []vtime.Duration{vtime.MS(33), vtime.MS(31), vtime.MS(29)}
	for i, w := range want {
		if responses[i] != w {
			t.Errorf("response[%d] = %v, want %v", i, responses[i], w)
		}
	}
}

func TestExecFnClamping(t *testing.T) {
	tk := Task{
		Name: "mod", Period: vtime.MS(10), WCET: vtime.MS(4),
		ExecFn: func(k int64, _ vtime.Time) vtime.Duration {
			if k == 0 {
				return 0 // below minimum: clamp to 1us
			}
			return vtime.MS(100) // above WCET: clamp to WCET
		},
	}
	s := mustScheduler(t, []Task{tk})
	s.ReleaseUpTo(0)
	if got := s.Current().Demand; got != vtime.Microsecond {
		t.Errorf("job 0 demand = %v, want 1us", got)
	}
	s.Run(0, vtime.MS(1))
	s.ReleaseUpTo(vtime.Time(vtime.MS(10)))
	if got := s.Current().Demand; got != vtime.MS(4) {
		t.Errorf("job 1 demand = %v, want WCET", got)
	}
}

func TestPeriodFnControlsArrivals(t *testing.T) {
	tk := Task{
		Name: "sporadic", Period: vtime.MS(10), WCET: vtime.MS(1),
		PeriodFn: func(k int64, _ vtime.Time) vtime.Duration {
			return vtime.MS(10 + 5*(k+1)) // growing gaps: 15, 20, ...
		},
	}
	s := mustScheduler(t, []Task{tk})
	s.ReleaseUpTo(0)
	if s.NextArrival() != vtime.Time(vtime.MS(15)) {
		t.Errorf("second arrival at %v, want 15ms", s.NextArrival())
	}
	s.ReleaseUpTo(vtime.Time(vtime.MS(15)))
	if s.NextArrival() != vtime.Time(vtime.MS(35)) {
		t.Errorf("third arrival at %v, want 35ms", s.NextArrival())
	}
}

func TestOffset(t *testing.T) {
	tk := Task{Name: "off", Period: vtime.MS(10), WCET: vtime.MS(1), Offset: vtime.MS(3)}
	s := mustScheduler(t, []Task{tk})
	s.ReleaseUpTo(0)
	if s.HasReady() {
		t.Error("offset task released too early")
	}
	if s.NextArrival() != vtime.Time(vtime.MS(3)) {
		t.Errorf("first arrival at %v, want 3ms", s.NextArrival())
	}
}

func TestReset(t *testing.T) {
	tk := Task{Name: "a", Period: vtime.MS(10), WCET: vtime.MS(1)}
	s := mustScheduler(t, []Task{tk})
	s.ReleaseUpTo(vtime.Time(vtime.MS(50)))
	s.Run(vtime.Time(vtime.MS(50)), vtime.MS(10))
	s.Reset()
	if s.HasReady() || s.Completed() != 0 || s.NextArrival() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestSchedulerRejectsInvalidTask(t *testing.T) {
	var s Scheduler
	if err := s.Init([]Task{{Name: "bad", Period: -1, WCET: 1}}); err == nil {
		t.Error("Init should reject invalid tasks")
	}
}

func TestRunWithNoWork(t *testing.T) {
	s := mustScheduler(t, []Task{{Name: "a", Period: vtime.MS(10), WCET: vtime.MS(1), Offset: vtime.MS(5)}})
	if used := s.Run(0, vtime.MS(3)); used != 0 {
		t.Errorf("Run with empty queue used %v", used)
	}
	if s.ShortestRemaining() != vtime.Forever {
		t.Error("idle ShortestRemaining should be Forever")
	}
}

func TestShuffleDispatchesAllBackloggedTasks(t *testing.T) {
	hi := Task{Name: "hi", Period: vtime.MS(100), WCET: vtime.MS(10)}
	lo := Task{Name: "lo", Period: vtime.MS(100), WCET: vtime.MS(10)}
	s := mustScheduler(t, []Task{hi, lo})
	// Round-robin shuffle: alternate picks.
	turn := 0
	s.Shuffle = func(n int) int {
		turn++
		return turn % n
	}
	s.ReleaseUpTo(0)
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		job := s.Current()
		if job == nil {
			t.Fatal("no job")
		}
		seen[job.Task.Name] = true
	}
	if !seen["hi"] || !seen["lo"] {
		t.Errorf("shuffled dispatch never visited both tasks: %v", seen)
	}
	// With Shuffle nil, strict priority returns hi.
	s.Shuffle = nil
	if s.Current().Task != s.Task(0) {
		t.Error("priority dispatch broken after clearing Shuffle")
	}
}

func TestShuffleEmptyQueue(t *testing.T) {
	s := mustScheduler(t, []Task{{Name: "a", Period: vtime.MS(10), WCET: vtime.MS(1), Offset: vtime.MS(5)}})
	s.Shuffle = func(n int) int { return 0 }
	if s.Current() != nil {
		t.Error("empty backlog should return nil under shuffle")
	}
}

// backlog returns the total outstanding execution demand across all pending
// jobs.
func backlog(s *Scheduler) vtime.Duration {
	var sum vtime.Duration
	for i := range s.states {
		for _, j := range s.states[i].queue() {
			sum += j.Remaining
		}
	}
	return sum
}
