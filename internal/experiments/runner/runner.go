// Package runner fans independent experiment trials across a bounded pool of
// worker goroutines. Every trial in this repository is a self-contained
// deterministic simulation keyed by its own configuration and seed (the
// engine's determinism contract: same config + seed ⇒ identical schedule), so
// trials may execute in any order on any number of workers and still produce
// the exact results of a sequential run — the pool only changes wall-clock
// time, never output. The experiments harnesses rely on this: they build a
// flat trial list, Map it, and render the results in input order.
//
// Error handling is first-error-wins with cancellation: once any trial fails,
// no new trials are started, in-flight trials finish, and the error reported
// is the one with the smallest input index among those observed — the same
// error a sequential run would surface whenever the failing trial is the
// first to fail deterministically. A panicking trial is contained the same
// way: the panic is recovered into an error (with the trial index and stack),
// remaining work is cancelled, and the pool drains normally instead of
// crashing the process from a worker goroutine.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism setting to an effective worker count:
// n >= 1 means exactly n workers (1 = sequential), and n <= 0 means one
// worker per available CPU (GOMAXPROCS).
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Pool occupancy monitor: process-wide atomic tallies of what the pools are
// doing right now, kept unconditionally (a handful of atomic adds around a
// whole simulation trial is noise). The /metrics exposition of the campaign
// CLIs reads these to report live worker occupancy without any plumbing
// through the harnesses.
var (
	monStarted  atomic.Int64 // trials claimed
	monDone     atomic.Int64 // trials finished, success or failure
	monFailed   atomic.Int64 // trials that returned an error (incl. panics)
	monInFlight atomic.Int64 // trials executing at this instant
	monWorkers  atomic.Int64 // pool worker goroutines alive (excl. sequential fast path)
)

// MonitorSnapshot is one read of the pool occupancy counters.
type MonitorSnapshot struct {
	Started  int64 // trials claimed since process start
	Done     int64 // trials finished (success or failure)
	Failed   int64 // trials that errored or panicked
	InFlight int64 // trials executing right now
	Workers  int64 // pool worker goroutines currently alive
}

// MonitorState reads the process-wide pool occupancy. Counters are sampled
// individually, so a snapshot taken mid-claim may be off by one — it is a
// live gauge, not an accounting source.
func MonitorState() MonitorSnapshot {
	return MonitorSnapshot{
		Started:  monStarted.Load(),
		Done:     monDone.Load(),
		Failed:   monFailed.Load(),
		InFlight: monInFlight.Load(),
		Workers:  monWorkers.Load(),
	}
}

// trialBegin/trialEnd bracket one trial for the occupancy monitor.
func trialBegin() {
	monStarted.Add(1)
	monInFlight.Add(1)
}

func trialEnd(err error) {
	monInFlight.Add(-1)
	monDone.Add(1)
	if err != nil {
		monFailed.Add(1)
	}
}

// Map runs fn(i, items[i]) for every item and returns the results in input
// order. workers follows the Workers convention (<= 0 ⇒ GOMAXPROCS); with one
// worker the items run sequentially on the calling goroutine with no
// goroutine or channel overhead. fn must be safe to call concurrently with
// itself for distinct indices. A panic in fn is recovered and reported as
// that trial's error rather than crashing the pool. Map is MapPooled with an
// empty per-worker state.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return MapPooled(workers,
		func() (struct{}, error) { return struct{}{}, nil },
		items,
		func(_ struct{}, i int, item T) (R, error) { return fn(i, item) })
}

// MapPooled is Map for trials that amortize expensive per-worker state: each
// worker calls newState once when it starts and threads that state through
// every trial it claims. The canonical state is a reusable simulation harness
// (built system + buffers) that each trial resets and reruns instead of
// reconstructing. fn must leave the state ready for the next trial; states
// are never shared between workers, so fn needs no locking around them.
// Results come back in input order, the first error (by index) wins,
// panics are contained (in newState too), and one worker runs the items
// sequentially on the calling goroutine.
func MapPooled[S, T, R any](workers int, newState func() (S, error), items []T, fn func(st S, i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	w := Workers(workers)
	if w > len(items) {
		w = len(items)
	}
	if w <= 1 {
		st, err := safeNew(newState)
		if err != nil {
			return nil, err
		}
		for i, item := range items {
			r, err := safeCall(fn, st, i, item)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	var (
		next   atomic.Int64 // next unclaimed input index
		failed atomic.Bool  // set once any trial errors: stop claiming work
		wg     sync.WaitGroup

		mu       sync.Mutex
		firstErr error
		errIdx   = -1
	)
	fail := func(i int, err error) {
		failed.Store(true)
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
	}
	for range w {
		wg.Add(1)
		monWorkers.Add(1)
		go func() {
			defer wg.Done()
			defer monWorkers.Add(-1)
			st, err := safeNew(newState)
			if err != nil {
				// Attribute state-construction failure to the next unclaimed
				// index so a deterministic first trial still wins ties.
				fail(int(next.Load()), err)
				return
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || failed.Load() {
					return
				}
				r, err := safeCall(fn, st, i, items[i])
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// safeNew builds one worker's state, containing panics like safeCall does.
func safeNew[S any](newState func() (S, error)) (st S, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("runner: worker state construction panicked: %v\n%s", p, debug.Stack())
		}
	}()
	return newState()
}

// safeCall invokes one trial, converting a panic into that trial's error so
// the first-error-wins machinery cancels and drains the pool instead of the
// process dying inside a worker goroutine.
func safeCall[S, T, R any](fn func(S, int, T) (R, error), st S, i int, item T) (r R, err error) {
	trialBegin()
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("runner: trial %d panicked: %v\n%s", i, p, debug.Stack())
		}
		trialEnd(err)
	}()
	return fn(st, i, item)
}

// Do runs heterogeneous thunks under the same pool semantics as Map. It is
// the shape for harnesses whose trials differ in type: each thunk writes its
// own result into variables it captures; Do's return establishes the
// happens-before edge that makes those writes visible to the caller.
func Do(workers int, fns ...func() error) error {
	_, err := Map(workers, fns, func(_ int, fn func() error) (struct{}, error) {
		return struct{}{}, fn()
	})
	return err
}
