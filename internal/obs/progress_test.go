package obs_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"timedice/internal/engine"
	"timedice/internal/obs"
)

// TestProgressSnapshot pins the campaign arithmetic: counters accumulate,
// the hit ratio derives from the cache tallies, and ETA appears once rate is
// known.
func TestProgressSnapshot(t *testing.T) {
	p := obs.NewProgress("unittest", 10)
	p.TrialStart()
	p.TrialStart()
	p.TrialDone(100, 1, 5*time.Millisecond)
	p.AddCache(30, 10)

	s := p.Snapshot()
	if s.Tool != "unittest" || s.Total != 10 {
		t.Fatalf("identity = %+v", s)
	}
	if s.Done != 1 || s.InFlight != 1 {
		t.Fatalf("done=%d inflight=%d, want 1/1", s.Done, s.InFlight)
	}
	if s.Events != 100 || s.Violations != 1 {
		t.Fatalf("events=%d violations=%d", s.Events, s.Violations)
	}
	if s.CacheHits != 30 || s.CacheMisses != 10 || s.CacheHitRatio != 0.75 {
		t.Fatalf("cache = %d/%d ratio %v", s.CacheHits, s.CacheMisses, s.CacheHitRatio)
	}
	if s.ETASeconds < 0 {
		t.Fatalf("ETA unknown (%v) despite done>0 and total>0", s.ETASeconds)
	}
	if s.TrialSecondsP50 <= 0 {
		t.Fatalf("p50 = %v, want the 5ms sample visible", s.TrialSecondsP50)
	}

	line := s.Line()
	for _, frag := range []string{"unittest: 1/10", "violations 1", "eta"} {
		if !strings.Contains(line, frag) {
			t.Fatalf("Line() = %q, missing %q", line, frag)
		}
	}
}

// TestProgressUnknownTotal: with total 0 the ETA stays -1 and Line renders
// the total as "?".
func TestProgressUnknownTotal(t *testing.T) {
	p := obs.NewProgress("unittest", 0)
	p.TrialStart()
	p.TrialDone(1, 0, time.Millisecond)
	s := p.Snapshot()
	if s.ETASeconds != -1 {
		t.Fatalf("ETA = %v, want -1 with no total", s.ETASeconds)
	}
	if !strings.Contains(s.Line(), "1/?") {
		t.Fatalf("Line() = %q, want unknown total rendered as ?", s.Line())
	}
}

// TestProgressConcurrent hammers the counters from many goroutines — the
// -race CI lane turns any unsynchronized access into a failure.
func TestProgressConcurrent(t *testing.T) {
	p := obs.NewProgress("unittest", 1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 125; i++ {
				p.TrialStart()
				p.AddCache(2, 1)
				p.AddEngine(&engine.Counters{Decisions: 3, BusyTime: 5, PolicySamples: 7})
				p.TrialDone(10, 0, time.Microsecond)
				_ = p.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := p.Snapshot()
	if s.Done != 1000 || s.InFlight != 0 || s.Events != 10000 {
		t.Fatalf("after concurrent updates: %+v", s)
	}
	// Host rows (policy_samples) are not campaign totals.
	if e := s.Engine; e["decisions"] != 3000 || e["busy_us"] != 5000 || e["policy_samples"] != 0 {
		t.Fatalf("engine totals after concurrent updates: %v", e)
	}
}

// TestProgressReporter: the -progress goroutine emits at least the final
// line and stops cleanly (stop is idempotent).
func TestProgressReporter(t *testing.T) {
	p := obs.NewProgress("unittest", 2)
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(b []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(b)
	})
	stop := p.StartReporter(w, time.Hour) // interval never fires; only the final line
	p.TrialStart()
	p.TrialDone(5, 0, time.Millisecond)
	stop()
	stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "unittest: 1/2") {
		t.Fatalf("reporter output = %q, want a final status line", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(b []byte) (int, error) { return f(b) }
