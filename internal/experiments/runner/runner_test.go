package runner

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Workers(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(-5); got != want {
		t.Errorf("Workers(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, 64} {
		got, err := Map(workers, items, func(i, item int) (int, error) {
			if i != item {
				return 0, fmt.Errorf("index %d got item %d", i, item)
			}
			return item * item, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(items) {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, r := range got {
			if r != i*i {
				t.Errorf("workers=%d: out[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(8, nil, func(i, item int) (int, error) { return 0, errors.New("never called") })
	if err != nil || len(got) != 0 {
		t.Fatalf("Map on empty input: %v, %v", got, err)
	}
}

func TestMapFirstError(t *testing.T) {
	items := make([]int, 50)
	errAt := func(bad ...int) map[int]bool {
		m := map[int]bool{}
		for _, b := range bad {
			m[b] = true
		}
		return m
	}
	for _, workers := range []int{1, 4} {
		bad := errAt(7, 31)
		_, err := Map(workers, items, func(i, _ int) (int, error) {
			if bad[i] {
				return 0, fmt.Errorf("trial %d failed", i)
			}
			return 0, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		// Sequential must report the lowest failing index; parallel reports
		// the lowest among those observed, which here includes index 7
		// because every index is attempted before later ones finish or the
		// failure at 31 can cancel it on <= 4 workers... the contract we can
		// assert for both: the reported error is one of the failing trials.
		if got := err.Error(); got != "trial 7 failed" && got != "trial 31 failed" {
			t.Errorf("workers=%d: unexpected error %q", workers, got)
		}
		if workers == 1 && err.Error() != "trial 7 failed" {
			t.Errorf("sequential must surface the first error, got %q", err)
		}
	}
}

func TestMapCancelsAfterError(t *testing.T) {
	items := make([]int, 1000)
	var ran atomic.Int64
	_, err := Map(2, items, func(i, _ int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("boom")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n > 100 {
		t.Errorf("ran %d trials after an immediate failure; cancellation not effective", n)
	}
}

func TestDo(t *testing.T) {
	var a, b, c int
	err := Do(4,
		func() error { a = 1; return nil },
		func() error { b = 2; return nil },
		func() error { c = 3; return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 2 || c != 3 {
		t.Errorf("thunk writes not visible: %d %d %d", a, b, c)
	}
	if err := Do(2, func() error { return nil }, func() error { return errors.New("x") }); err == nil {
		t.Error("Do should propagate thunk errors")
	}
}

// TestMapPanicRecovered covers a panicking trial function on both pool
// shapes: the panic must surface as an error naming the trial, remaining work
// must stop being claimed, and the pool must drain without deadlock (the test
// itself hangs if it doesn't). Run under -race this also proves the recovery
// path is properly synchronized.
//
// The cancellation bound holds without timing assumptions. Trial 5 panics
// only once every worker is up, and trials past it wait until a worker has
// exited. The first worker to exit is the panicking one, whose deferred
// monitor decrement runs after it has set the stop flag, so each other worker
// starts at most one trial past the panic. The monitor is process-wide; no
// test in this package runs in parallel with another.
func TestMapPanicRecovered(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 4} {
		full := MonitorState().Workers + int64(workers)
		var started atomic.Int64
		var armed atomic.Bool
		_, err := Map(workers, items, func(i, v int) (int, error) {
			started.Add(1)
			switch {
			case i == 5:
				for workers > 1 && MonitorState().Workers < full {
					runtime.Gosched()
				}
				armed.Store(true)
				panic(fmt.Sprintf("boom at %d", i))
			case i > 5:
				for !armed.Load() || MonitorState().Workers >= full {
					runtime.Gosched()
				}
			}
			return v, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic was not reported as an error", workers)
		}
		if want := "trial 5 panicked"; !contains(err.Error(), want) {
			t.Fatalf("workers=%d: error %q does not mention %q", workers, err, want)
		}
		if !contains(err.Error(), "boom at 5") {
			t.Fatalf("workers=%d: error %q lost the panic value", workers, err)
		}
		// Trials 0..5, plus at most one trial past the panic per other worker.
		if n, most := started.Load(), int64(6+workers-1); n > most {
			t.Fatalf("workers=%d: %d trials started, want at most %d", workers, n, most)
		}
	}
}

// TestDoPanicRecovered pins the same containment for Do.
func TestDoPanicRecovered(t *testing.T) {
	err := Do(2,
		func() error { return nil },
		func() error { panic("thunk panic") },
	)
	if err == nil || !contains(err.Error(), "thunk panic") {
		t.Fatalf("Do did not surface the panic: %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && strings.Contains(s, sub)
}

// poolState is a MapPooled worker state that records which trials it served,
// proving state reuse within a worker and isolation between workers.
type poolState struct {
	id     int64
	served int
}

func TestMapPooledReusesPerWorkerState(t *testing.T) {
	items := make([]int, 60)
	for i := range items {
		items[i] = i
	}
	var states atomic.Int64
	newState := func() (*poolState, error) {
		return &poolState{id: states.Add(1)}, nil
	}
	for _, workers := range []int{1, 4} {
		states.Store(0)
		out, err := MapPooled(workers, newState, items, func(st *poolState, i int, item int) (int, error) {
			st.served++
			return item * item, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range out {
			if r != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
		if built := int(states.Load()); built > workers || built == 0 {
			t.Errorf("workers=%d: built %d states", workers, built)
		}
	}
}

func TestMapPooledStateError(t *testing.T) {
	boom := errors.New("no state")
	_, err := MapPooled(3, func() (int, error) { return 0, boom }, []int{1, 2, 3},
		func(st, i, item int) (int, error) { return item, nil })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
}

func TestMapPooledTrialErrorAndPanic(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	newState := func() (int, error) { return 0, nil }
	wantErr := errors.New("trial failed")
	_, err := MapPooled(2, newState, items, func(st, i, item int) (int, error) {
		if item == 3 {
			return 0, wantErr
		}
		return item, nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
	_, err = MapPooled(2, newState, items, func(st, i, item int) (int, error) {
		if item == 2 {
			panic("kaboom")
		}
		return item, nil
	})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("panic not contained: %v", err)
	}
}

// TestMonitorCounters pins the occupancy monitor's deltas across one Map and
// one failing MapPooled batch: Started/Done advance by the trial count,
// Failed by the error count, and nothing stays in flight afterwards. The
// counters are process-wide, so the test asserts deltas, not absolutes.
func TestMonitorCounters(t *testing.T) {
	before := MonitorState()
	items := make([]int, 40)
	if _, err := Map(4, items, func(i, _ int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	_, err := MapPooled(4,
		func() (struct{}, error) { return struct{}{}, nil },
		items,
		func(_ struct{}, i, _ int) (int, error) {
			if i == 7 {
				return 0, errors.New("boom")
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("failing batch returned no error")
	}
	after := MonitorState()
	// The failing batch cancels remaining trials after the first error, so
	// the exact count is scheduling-dependent; the bounds are firm.
	started := after.Started - before.Started
	done := after.Done - before.Done
	if started < 41 || started > 80 {
		t.Fatalf("started delta = %d, want 41..80 (40 Map trials + 1..40 pooled)", started)
	}
	if done != started {
		t.Fatalf("done delta %d != started delta %d: trials leaked", done, started)
	}
	if failed := after.Failed - before.Failed; failed < 1 {
		t.Fatalf("failed delta = %d, want >= 1", failed)
	}
	if after.InFlight != before.InFlight {
		t.Fatalf("inflight delta = %d, want 0 at rest", after.InFlight-before.InFlight)
	}
	if after.Workers != before.Workers {
		t.Fatalf("workers delta = %d, want 0 at rest", after.Workers-before.Workers)
	}
}
