package shard

import (
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryWorkerOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		p := NewPool(w)
		counts := make([]atomic.Int64, w)
		for round := 0; round < 50; round++ {
			p.Run(func(id int) { counts[id].Add(1) })
		}
		for id := range counts {
			if got := counts[id].Load(); got != 50 {
				t.Errorf("workers=%d: worker %d ran %d times, want 50", w, id, got)
			}
		}
		p.Close()
	}
}

// TestPoolPublishes pins the happens-before contract: values written by the
// caller before Run are visible to every worker, and per-worker results
// written during Run are visible to the caller after Run. Run under -race
// this is the pool's memory-model test.
func TestPoolPublishes(t *testing.T) {
	const w = 4
	p := NewPool(w)
	defer p.Close()
	in := make([]int, w)
	out := make([]int, w)
	for round := 1; round <= 100; round++ {
		for i := range in {
			in[i] = round * (i + 1)
		}
		p.Run(func(id int) { out[id] = in[id] * 2 })
		for i := range out {
			if out[i] != 2*round*(i+1) {
				t.Fatalf("round %d: out[%d] = %d, want %d", round, i, out[i], 2*round*(i+1))
			}
		}
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(4)
	p.Run(func(int) {})
	p.Close()
	p.Close()
	p1 := NewPool(1)
	p1.Close()
	p1.Close()
}

func TestPoolSingleWorkerInline(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	ran := false
	p.Run(func(id int) {
		if id != 0 {
			t.Fatalf("inline worker id %d", id)
		}
		ran = true
	})
	if !ran {
		t.Fatal("inline Run did not execute")
	}
}

// TestPoolDispatchZeroAlloc pins the steady-state cost contract: a Run round
// with a prebuilt closure allocates nothing.
func TestPoolDispatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin runs in the non-race CI lane")
	}
	p := NewPool(4)
	defer p.Close()
	var sink [4]int64
	fn := func(id int) { sink[id]++ }
	p.Run(fn) // warm
	allocs := testing.AllocsPerRun(100, func() { p.Run(fn) })
	if allocs != 0 {
		t.Errorf("pool dispatch allocates %.1f times per round, want 0", allocs)
	}
}
