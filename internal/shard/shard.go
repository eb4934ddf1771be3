// Package shard provides a persistent worker pool: a fixed set of
// long-lived workers released and joined through a sense-reversing barrier.
//
// The engine does not use it; every simulated system steps on one goroutine.
// The pool stays only because cmd/benchrec, a separate module, still builds
// one for the deprecated engine.System.SetSharding no-op. Both go with the
// next change to that command.
//
// Steady-state cost: one Run is two barrier crossings (release, join) with
// no goroutine spawn and no allocation — the workers are created once by
// NewPool and parked between rounds. A Pool with one worker degenerates to a
// plain inline call.
package shard

import "sync"

// barrier is a counter-based sense-reversing barrier over a fixed party
// count. Each crossing flips the sense: parties arriving in round r wait for
// the sense word to leave round r's value, so consecutive crossings never
// confuse each other and no reinitialization is needed between rounds.
// Waiters park on a sync.Cond rather than spinning — the pool must behave on
// oversubscribed and single-core hosts, where a spin-waiter would steal the
// timeslice the working goroutines need.
type barrier struct {
	mu    sync.Mutex
	cond  sync.Cond
	n     int
	count int
	sense bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond.L = &b.mu
	return b
}

// await blocks until all n parties have arrived, then releases them all.
// The last arriver flips the sense and broadcasts; the others wait for the
// flip. No allocation per crossing.
func (b *barrier) await() {
	b.mu.Lock()
	s := b.sense
	b.count++
	if b.count == b.n {
		b.count = 0
		b.sense = !s
		b.cond.Broadcast()
	} else {
		for b.sense == s {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// Pool is a persistent pool of workers executing one function at a time
// across all workers. The caller participates as worker 0, so a Pool of W
// workers owns W−1 goroutines. Run may be called any number of times;
// concurrent Run calls on one Pool are not allowed.
type Pool struct {
	workers int
	bar     *barrier // nil when workers == 1 (pure inline mode)
	fn      func(worker int)
	stop    bool
	closed  bool
}

// NewPool creates a pool of the given worker count (minimum 1). With
// workers <= 1 no goroutines are created and Run calls the function inline —
// the exact sequential behaviour of having no pool.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.bar = newBarrier(workers)
		for w := 1; w < workers; w++ {
			go p.worker(w)
		}
	}
	return p
}

// Workers returns the configured worker count (including the caller).
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) worker(id int) {
	for {
		p.bar.await() // release: Run (or Close) has published fn/stop
		if p.stop {
			return
		}
		p.fn(id)
		p.bar.await() // join
	}
}

// Run executes fn(w) for every worker id w in 0..Workers()-1, the caller
// running as worker 0, and returns when all workers have finished. fn must
// be safe to call concurrently from distinct goroutines with distinct ids.
// Passing a prebuilt closure keeps the steady state allocation-free: Run
// itself allocates nothing.
//
// The release barrier publishes fn (and everything the caller wrote before
// Run) to the workers; the join barrier publishes everything the workers
// wrote back to the caller.
func (p *Pool) Run(fn func(worker int)) {
	if p.bar == nil {
		fn(0)
		return
	}
	p.fn = fn
	p.bar.await() // release
	fn(0)
	p.bar.await() // join
	p.fn = nil
}

// Close shuts the worker goroutines down. Idempotent and safe on nil; the
// pool must not be used after Close. A 1-worker pool has nothing to stop.
func (p *Pool) Close() {
	if p == nil || p.closed {
		return
	}
	p.closed = true
	if p.bar == nil {
		return
	}
	p.stop = true
	p.bar.await() // release the workers into their stop check; they exit without joining
}
