package server

import (
	"testing"

	"timedice/internal/vtime"
)

func TestNewValidation(t *testing.T) {
	if _, err := newServer(0, vtime.MS(10), Polling); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := newServer(vtime.MS(5), 0, Polling); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := newServer(vtime.MS(11), vtime.MS(10), Polling); err == nil {
		t.Error("budget > period accepted")
	}
	if _, err := newServer(vtime.MS(1), vtime.MS(10), Policy(99)); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := newServer(vtime.MS(1), vtime.MS(10), Deferrable); err != nil {
		t.Errorf("valid server rejected: %v", err)
	}
}

func TestPolicyString(t *testing.T) {
	if Polling.String() != "polling" || Deferrable.String() != "deferrable" || Sporadic.String() != "sporadic" {
		t.Error("policy names")
	}
}

func TestInitialState(t *testing.T) {
	s := mustNew(vtime.MS(2), vtime.MS(10), Polling)
	if !s.Active() || s.Remaining() != vtime.MS(2) || s.LastReplenish() != 0 {
		t.Error("initial state wrong")
	}
	if s.Deadline() != vtime.Time(vtime.MS(10)) {
		t.Errorf("deadline = %v", s.Deadline())
	}
	if s.Utilization() != 0.2 {
		t.Errorf("utilization = %v", s.Utilization())
	}
}

func TestPeriodicReplenishment(t *testing.T) {
	for _, pol := range []Policy{Polling, Deferrable} {
		s := mustNew(vtime.MS(2), vtime.MS(10), pol)
		s.Consume(0, vtime.MS(2))
		if s.Active() {
			t.Fatalf("%v: active after full consumption", pol)
		}
		s.AdvanceTo(vtime.Time(vtime.MS(9)))
		if s.Active() {
			t.Fatalf("%v: replenished early", pol)
		}
		s.AdvanceTo(vtime.Time(vtime.MS(10)))
		if s.Remaining() != vtime.MS(2) {
			t.Fatalf("%v: not replenished at period boundary", pol)
		}
		if s.LastReplenish() != vtime.Time(vtime.MS(10)) {
			t.Fatalf("%v: lastReplenish = %v", pol, s.LastReplenish())
		}
	}
}

func TestMultiPeriodAdvance(t *testing.T) {
	s := mustNew(vtime.MS(2), vtime.MS(10), Deferrable)
	s.Consume(0, vtime.MS(1))
	s.AdvanceTo(vtime.Time(vtime.MS(35)))
	if s.Remaining() != vtime.MS(2) {
		t.Error("budget should be full after multiple periods")
	}
	if s.LastReplenish() != vtime.Time(vtime.MS(30)) {
		t.Errorf("lastReplenish = %v, want 30ms", s.LastReplenish())
	}
	if s.NextReplenish() != vtime.Time(vtime.MS(40)) {
		t.Errorf("nextReplenish = %v, want 40ms", s.NextReplenish())
	}
}

func TestPollingDiscardsIdleBudget(t *testing.T) {
	s := mustNew(vtime.MS(2), vtime.MS(10), Polling)
	if !s.NoteIdle(0) {
		t.Fatal("polling server should discard on idle")
	}
	if s.Active() {
		t.Fatal("still active after discard")
	}
	// Deferrable retains.
	d := mustNew(vtime.MS(2), vtime.MS(10), Deferrable)
	if d.NoteIdle(0) || !d.Active() {
		t.Fatal("deferrable server must retain idle budget")
	}
	// Sporadic retains.
	sp := mustNew(vtime.MS(2), vtime.MS(10), Sporadic)
	if sp.NoteIdle(0) || !sp.Active() {
		t.Fatal("sporadic server must retain idle budget")
	}
}

func TestSporadicChunkReplenishment(t *testing.T) {
	s := mustNew(vtime.MS(4), vtime.MS(10), Sporadic)
	// Consume 1ms at t=2 and 2ms at t=5.
	s.AdvanceTo(vtime.Time(vtime.MS(2)))
	s.Consume(vtime.Time(vtime.MS(2)), vtime.MS(1))
	s.AdvanceTo(vtime.Time(vtime.MS(5)))
	s.Consume(vtime.Time(vtime.MS(5)), vtime.MS(2))
	if s.Remaining() != vtime.MS(1) {
		t.Fatalf("remaining = %v", s.Remaining())
	}
	// First chunk replenishes at 12, second at 15.
	if s.NextReplenish() != vtime.Time(vtime.MS(10)) {
		// Period boundary bookkeeping keeps the analysis anchor; chunk is
		// at 12, periodic anchor at 10: NextReplenish is the earlier of the
		// chunk queue and the anchor-based period boundary.
		t.Fatalf("NextReplenish = %v, want 10ms (anchor)", s.NextReplenish())
	}
	s.AdvanceTo(vtime.Time(vtime.MS(12)))
	if s.Remaining() != vtime.MS(2) {
		t.Errorf("after first chunk replenish: %v, want 2ms", s.Remaining())
	}
	s.AdvanceTo(vtime.Time(vtime.MS(15)))
	if s.Remaining() != vtime.MS(4) {
		t.Errorf("after second chunk replenish: %v, want 4ms", s.Remaining())
	}
}

func TestSporadicCapsAtBudget(t *testing.T) {
	s := mustNew(vtime.MS(4), vtime.MS(10), Sporadic)
	s.Consume(0, vtime.MS(1))
	// The chunk alone would push remaining to 4 (3+1); cap holds at B.
	s.AdvanceTo(vtime.Time(vtime.MS(10)))
	if s.Remaining() != vtime.MS(4) {
		t.Errorf("remaining = %v, want capped at 4ms", s.Remaining())
	}
}

func TestConsumePanicsBeyondRemaining(t *testing.T) {
	s := mustNew(vtime.MS(2), vtime.MS(10), Polling)
	defer func() {
		if recover() == nil {
			t.Error("over-consumption should panic")
		}
	}()
	s.Consume(0, vtime.MS(3))
}

func TestReset(t *testing.T) {
	s := mustNew(vtime.MS(2), vtime.MS(10), Sporadic)
	s.Consume(0, vtime.MS(2))
	s.AdvanceTo(vtime.Time(vtime.MS(25)))
	s.Reset()
	if s.Remaining() != vtime.MS(2) || s.LastReplenish() != 0 || s.NextReplenish() != vtime.Time(vtime.MS(10)) {
		t.Error("Reset incomplete")
	}
}

func TestBudgetConservationProperty(t *testing.T) {
	// Property: total consumption over k periods never exceeds k·B for the
	// periodic policies.
	for _, pol := range []Policy{Polling, Deferrable} {
		s := mustNew(vtime.MS(3), vtime.MS(10), pol)
		var consumed vtime.Duration
		now := vtime.Time(0)
		for step := 0; step < 1000; step++ {
			s.AdvanceTo(now)
			take := s.Remaining().Min(vtime.MS(1))
			s.Consume(now, take)
			consumed += take
			now = now.Add(vtime.FromFloatMS(0.7))
		}
		periods := vtime.FloorDiv(vtime.Duration(now), vtime.MS(10)) + 1
		if consumed > vtime.Duration(periods)*vtime.MS(3) {
			t.Errorf("%v: consumed %v over %d periods (budget 3ms)", pol, consumed, periods)
		}
	}
}

// mustNew is newServer but panics on a bad configuration.
func mustNew(b, t vtime.Duration, policy Policy) *Server {
	s, err := newServer(b, t, policy)
	if err != nil {
		panic(err)
	}
	return s
}

// newServer returns a zero Server initialized in place by Init.
func newServer(b, t vtime.Duration, policy Policy) (*Server, error) {
	s := new(Server)
	if err := s.Init(b, t, policy); err != nil {
		return nil, err
	}
	return s, nil
}
