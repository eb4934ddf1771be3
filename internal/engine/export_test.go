package engine

import (
	"fmt"

	"timedice/internal/vtime"
)

// RunScan is Run on the reference O(P) stepper, scanStep. Only tests and
// benchmarks of this package reach it: the indexed-vs-scan differential, the
// golden and tie-break tests, and the scaling benchmark's scan baseline.
func (s *System) RunScan(until vtime.Time) {
	s.armLatency()
	for s.now < until {
		s.scanStep(until)
	}
}

// scanStep is the reference for step's due-set phase. Instead of the event
// heap's CollectDue and MinKey it reads every partition's key for delivery,
// gives every partition the polling-idle notification, and takes the horizon
// as the minimum over the keys; then it
// shares step's decideAndExecute. Pick, Runnable, FirstRunnable and the
// inversion check all read the ready bitset, so before the shared tail the
// stepper asserts that every bit equals the partition's live runnability.
func (s *System) scanStep(until vtime.Time) {
	now := s.now
	delivered := 0
	for i, p := range s.Partitions {
		if s.evq.Key(i) <= now {
			s.deliver(i, p, now)
			delivered++
		}
	}
	for i, p := range s.Partitions {
		if !p.Local.HasReady() && p.Server.NoteIdle(now) {
			s.hotRemaining[i] = 0
		}
	}
	// Cache-traffic proxy: the delivery scan reads every heap key,
	// NoteIdle visits every partition's record, and the horizon reduce
	// reads the keys again — O(P) bytes per step even when nothing is
	// due.
	s.Counters.ArenaBytesTouched += int64(len(s.Partitions))*(8+partVisitBytes+8) +
		int64(delivered)*(arenaStrideBytes+partVisitBytes)

	horizon := until
	for i, p := range s.Partitions {
		if s.ready.Test(i) != p.Runnable() {
			panic(fmt.Sprintf("engine: at %v ready bit %d = %v, live runnability %v",
				now, i, s.ready.Test(i), p.Runnable()))
		}
		horizon = min(horizon, s.evq.Key(i))
	}
	s.decideAndExecute(until, horizon)
}
