package server

import (
	"testing"

	"timedice/internal/vtime"
)

// obsRecorder captures observer callbacks for the edge-case tests.
type obsRecorder struct {
	tags []int // the tag of every callback, in order
	repl []struct {
		at                vtime.Time
		amount, remaining vtime.Duration
	}
	depl []struct {
		at        vtime.Time
		discarded vtime.Duration
	}
}

func (o *obsRecorder) Replenished(tag int, at vtime.Time, amount, remaining vtime.Duration) {
	o.tags = append(o.tags, tag)
	o.repl = append(o.repl, struct {
		at                vtime.Time
		amount, remaining vtime.Duration
	}{at, amount, remaining})
}

func (o *obsRecorder) Depleted(tag int, at vtime.Time, discarded vtime.Duration) {
	o.tags = append(o.tags, tag)
	o.depl = append(o.depl, struct {
		at        vtime.Time
		discarded vtime.Duration
	}{at, discarded})
}

// TestDepleteExactlyAtBoundary exhausts the budget with a slice that ends
// exactly on the period boundary: the depletion and the boundary
// replenishment coincide in virtual time, and both must be visible (deplete
// first, then a full replenish at the same instant).
func TestDepleteExactlyAtBoundary(t *testing.T) {
	for _, pol := range []Policy{Polling, Deferrable} {
		s := MustNew(vtime.MS(2), vtime.MS(10), pol)
		rec := &obsRecorder{}
		s.SetObserver(rec, 7)

		// Slice [8ms, 10ms) consumes the whole budget; it ends at the boundary.
		s.AdvanceTo(vtime.Time(vtime.MS(8)))
		s.Consume(vtime.Time(vtime.MS(8)), vtime.MS(2))
		if s.Remaining() != 0 {
			t.Fatalf("%v: remaining %v after full consumption", pol, s.Remaining())
		}
		if len(rec.depl) != 1 || rec.depl[0].at != vtime.Time(vtime.MS(10)) || rec.depl[0].discarded != 0 {
			t.Fatalf("%v: depletion events %+v, want one execution-deplete at 10ms", pol, rec.depl)
		}

		// The boundary itself restores the full budget — no dead period.
		s.AdvanceTo(vtime.Time(vtime.MS(10)))
		if s.Remaining() != vtime.MS(2) {
			t.Fatalf("%v: boundary replenish left %v", pol, s.Remaining())
		}
		if len(rec.repl) != 1 || rec.repl[0].at != vtime.Time(vtime.MS(10)) ||
			rec.repl[0].amount != vtime.MS(2) || rec.repl[0].remaining != vtime.MS(2) {
			t.Fatalf("%v: replenish events %+v, want full 2ms at 10ms", pol, rec.repl)
		}
		if s.Deadline() != vtime.Time(vtime.MS(20)) {
			t.Fatalf("%v: deadline %v after boundary, want 20ms", pol, s.Deadline())
		}
		if len(rec.tags) != 2 || rec.tags[0] != 7 || rec.tags[1] != 7 {
			t.Fatalf("%v: callback tags %v, want the installed tag 7 on both", pol, rec.tags)
		}
	}
}

// TestDeferrableBackToBackBurst is Strosnider's double-hit: a deferrable
// server that retains its budget to the very end of a period and replenishes
// at the boundary can supply 2B back-to-back — which the conservative
// analyses must (and do) account for. The ledger must permit the burst
// without ever exceeding B within a single period window.
func TestDeferrableBackToBackBurst(t *testing.T) {
	s := MustNew(vtime.MS(2), vtime.MS(10), Deferrable)

	// Idle through most of the period: deferrable retains.
	s.AdvanceTo(vtime.Time(vtime.MS(8)))
	if s.NoteIdle(vtime.Time(vtime.MS(8))) {
		t.Fatal("deferrable discarded budget on idle")
	}
	if s.Remaining() != vtime.MS(2) {
		t.Fatalf("retained %v, want full budget", s.Remaining())
	}

	// Burst 1: [8ms, 10ms) drains the retained budget right before the
	// boundary.
	s.Consume(vtime.Time(vtime.MS(8)), vtime.MS(2))
	if s.Active() {
		t.Fatal("active after draining retained budget")
	}

	// Burst 2: the boundary replenishes and the server can immediately run
	// [10ms, 12ms) — 4ms of supply in the contiguous window [8ms, 12ms).
	s.AdvanceTo(vtime.Time(vtime.MS(10)))
	if s.Remaining() != vtime.MS(2) {
		t.Fatalf("boundary replenish left %v", s.Remaining())
	}
	s.Consume(vtime.Time(vtime.MS(10)), vtime.MS(2))
	if s.Remaining() != 0 {
		t.Fatalf("remaining %v after back-to-back burst", s.Remaining())
	}

	// No further supply until the next boundary: the double hit cannot chain
	// into a triple.
	s.AdvanceTo(vtime.Time(vtime.MS(19)))
	if s.Active() {
		t.Fatal("budget appeared before the next boundary")
	}
	s.AdvanceTo(vtime.Time(vtime.MS(20)))
	if s.Remaining() != vtime.MS(2) {
		t.Fatal("next boundary did not replenish")
	}
}

// TestSporadicReplenishmentSplitting checks Sprunt's rule at chunk
// granularity: two consumptions at different instants replenish as two
// separate chunks, each one period after its own start — not merged at the
// period boundary.
func TestSporadicReplenishmentSplitting(t *testing.T) {
	s := MustNew(vtime.MS(3), vtime.MS(10), Sporadic)
	rec := &obsRecorder{}
	s.SetObserver(rec, 7)

	// Chunk A: 1ms consumed starting at t=2ms → replenishes at 12ms.
	// Chunk B: 2ms consumed starting at t=5ms → replenishes at 15ms.
	s.Consume(vtime.Time(vtime.MS(2)), vtime.MS(1))
	s.Consume(vtime.Time(vtime.MS(5)), vtime.MS(2))
	if s.Remaining() != 0 {
		t.Fatalf("remaining %v after consuming full budget", s.Remaining())
	}
	// NextReplenish is anchored at min(chunk head, period boundary): the
	// 10ms boundary precedes chunk A, and the anchor is the conservative
	// floor the schedulability test may assume.
	if got := s.NextReplenish(); got != vtime.Time(vtime.MS(10)) {
		t.Fatalf("NextReplenish %v, want the 10ms boundary anchor", got)
	}

	// The boundary itself delivers nothing (sporadic budget follows the
	// chunks), and neither does any instant before chunk A's schedule.
	s.AdvanceTo(vtime.Time(vtime.MS(11)))
	if s.Remaining() != 0 {
		t.Fatalf("remaining %v at 11ms, want 0 (no chunk due yet)", s.Remaining())
	}

	// 12ms delivers only chunk A; chunk B stays queued.
	s.AdvanceTo(vtime.Time(vtime.MS(12)))
	if s.Remaining() != vtime.MS(1) {
		t.Fatalf("remaining %v at 12ms, want chunk A's 1ms only", s.Remaining())
	}
	if got := s.NextReplenish(); got != vtime.Time(vtime.MS(15)) {
		t.Fatalf("NextReplenish %v after chunk A, want chunk B at 15ms", got)
	}
	s.AdvanceTo(vtime.Time(vtime.MS(14)))
	if s.Remaining() != vtime.MS(1) {
		t.Fatalf("remaining %v at 14ms, chunk B delivered early", s.Remaining())
	}

	// Chunk B arrives on its own schedule.
	s.AdvanceTo(vtime.Time(vtime.MS(15)))
	if s.Remaining() != vtime.MS(3) {
		t.Fatalf("remaining %v at 15ms, want full budget restored", s.Remaining())
	}
	if len(rec.repl) != 2 ||
		rec.repl[0].amount != vtime.MS(1) || rec.repl[0].remaining != vtime.MS(1) ||
		rec.repl[1].amount != vtime.MS(2) || rec.repl[1].remaining != vtime.MS(3) {
		t.Fatalf("replenish events %+v, want two split chunks 1ms then 2ms", rec.repl)
	}
}

// TestMutationHookInert pins that non-mutation builds replenish the full
// budget (replenishShort must be zero unless the timedice_mutation tag is
// set — the mutation smoke test relies on the flip being the only change).
func TestMutationHookInert(t *testing.T) {
	if replenishShort != 0 {
		t.Skip("mutation build: replenishment deliberately shorted")
	}
	s := MustNew(vtime.MS(2), vtime.MS(10), Polling)
	s.Consume(0, vtime.MS(2))
	s.AdvanceTo(vtime.Time(vtime.MS(10)))
	if s.Remaining() != vtime.MS(2) {
		t.Fatalf("boundary replenish left %v, want the full budget", s.Remaining())
	}
}
