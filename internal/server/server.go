// Package server implements the CPU-budget server algorithms that instantiate
// priority-based partitions (paper §II and §V-A): the polling server (the
// behaviour of LITMUS^RT's "sporadic-polling" server used by the paper's
// implementation), the deferrable server, and the sporadic server.
//
// A server owns the budget accounting of one partition: the maximum budget
// B_i, the replenishment period T_i, the remaining budget B_i(t), and the
// last replenishment time r_{i,t}. The last two are exactly the quantities
// the TimeDice schedulability test (Algorithm 3) reads at each decision point.
package server

import (
	"fmt"

	"timedice/internal/eventq"
	"timedice/internal/vtime"
)

// Policy selects the replenishment/consumption rule.
type Policy int

const (
	// Polling replenishes the budget to B at every period boundary and
	// discards whatever budget remains the moment the partition has no
	// pending workload. This matches the sporadic-polling server of
	// LITMUS^RT on which the paper's implementation is based.
	Polling Policy = iota + 1
	// Deferrable replenishes to B at every period boundary and retains
	// unused budget until the end of the period (Strosnider et al.).
	Deferrable
	// Sporadic replenishes each consumed chunk one period after the instant
	// consumption of that chunk began (Sprunt et al.), approximated at the
	// granularity of dispatch slices.
	Sporadic
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Polling:
		return "polling"
	case Deferrable:
		return "deferrable"
	case Sporadic:
		return "sporadic"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Observer receives budget lifecycle callbacks from a Server. The
// hierarchical engine installs itself on every partition's server and tells
// the partitions apart by the tag it installed with; with no observer the
// accounting paths skip a nil check and nothing else.
type Observer interface {
	// Replenished fires when budget is added: at the replenishment instant,
	// with the amount added and the budget remaining afterwards.
	Replenished(tag int, at vtime.Time, amount, remaining vtime.Duration)
	// Depleted fires when the budget reaches zero: discarded is 0 when
	// execution consumed it, or the discarded amount when an idle polling
	// server dropped it (NoteIdle).
	Depleted(tag int, at vtime.Time, discarded vtime.Duration)
}

// Server is the budget account of one partition. Create one with New, or
// build one in place inside a larger record with Init. Everything AdvanceTo,
// NextReplenish, Consume and Remaining read for the boundary-replenished
// policies is in the first 64 bytes, which partition.Partition places on
// one cache line.
type Server struct {
	remaining     vtime.Duration // B_i(t)
	lastReplenish vtime.Time     // r_{i,t}
	period        vtime.Duration // T_i
	budget        vtime.Duration // B_i
	policy        Policy
	obs           Observer
	tag           int // passed back to obs on every callback
	// repl is non-nil exactly for the Sporadic policy (Init allocates it).
	repl *replQueue
}

// replQueue holds a sporadic server's pending replenishment chunks and the
// scratch its drain reuses, apart from the Server so the other policies do
// not carry it.
type replQueue struct {
	q   eventq.Queue[vtime.Duration]
	buf []vtime.Duration // scratch for draining q without allocating
}

// SetObserver installs (or removes, with nil) the budget observer. Every
// callback passes tag back, so one observer can serve many servers.
func (s *Server) SetObserver(o Observer, tag int) { s.obs, s.tag = o, tag }

// New returns a server with maximum budget b replenished every period t under
// the given policy. The budget is initially full with r_{i,0} = 0.
func New(b, t vtime.Duration, policy Policy) (*Server, error) {
	s := new(Server)
	if err := s.Init(b, t, policy); err != nil {
		return nil, err
	}
	return s, nil
}

// Init makes the zero Server s the server New(b, t, policy) would return,
// in place. On error s is left unchanged.
func (s *Server) Init(b, t vtime.Duration, policy Policy) error {
	switch {
	case b <= 0:
		return fmt.Errorf("server: budget must be positive, got %v", b)
	case t <= 0:
		return fmt.Errorf("server: period must be positive, got %v", t)
	case b > t:
		return fmt.Errorf("server: budget %v exceeds period %v", b, t)
	}
	switch policy {
	case Polling, Deferrable, Sporadic:
	default:
		return fmt.Errorf("server: unknown policy %v", policy)
	}
	s.budget, s.period, s.policy, s.remaining = b, t, policy, b
	if policy == Sporadic {
		s.repl = new(replQueue)
	}
	return nil
}

// MustNew is New but panics on error; for tests and static configurations.
func MustNew(b, t vtime.Duration, policy Policy) *Server {
	s, err := New(b, t, policy)
	if err != nil {
		panic(err)
	}
	return s
}

// Budget returns B_i.
func (s *Server) Budget() vtime.Duration { return s.budget }

// Period returns T_i.
func (s *Server) Period() vtime.Duration { return s.period }

// PolicyKind returns the replenishment policy.
func (s *Server) PolicyKind() Policy { return s.policy }

// Remaining returns B_i(t), the budget left right now.
func (s *Server) Remaining() vtime.Duration { return s.remaining }

// Active reports whether the partition is active in the paper's sense:
// non-zero remaining budget.
func (s *Server) Active() bool { return s.remaining > 0 }

// LastReplenish returns r_{i,t}, the most recent replenishment instant not
// later than the current instant. For the sporadic server this is the most
// recent period boundary (used by analysis as the conservative anchor).
func (s *Server) LastReplenish() vtime.Time { return s.lastReplenish }

// NextReplenish returns the earliest future instant at which budget will be
// added.
func (s *Server) NextReplenish() vtime.Time {
	periodic := s.lastReplenish.Add(s.period)
	if s.policy == Sporadic {
		if t := s.repl.q.PeekTime(); t < periodic {
			return t
		}
	}
	return periodic
}

// AdvanceTo applies every replenishment event with instant <= now. The engine
// calls it at every decision point before reading Remaining.
func (s *Server) AdvanceTo(now vtime.Time) {
	if s.policy == Sporadic {
		r := s.repl
		r.buf = r.q.PopUntil(now, r.buf[:0])
		for _, amount := range r.buf {
			before := s.remaining
			s.remaining += amount
			if s.remaining > s.budget {
				s.remaining = s.budget
			}
			if s.obs != nil && s.remaining > before {
				// The queue does not retain the exact replenishment instant,
				// so the event is stamped at the delivery instant `now` (at
				// most one decision point later).
				s.obs.Replenished(s.tag, now, s.remaining-before, s.remaining)
			}
		}
		for s.lastReplenish.Add(s.period) <= now {
			s.lastReplenish = s.lastReplenish.Add(s.period)
		}
		return
	}
	for s.lastReplenish.Add(s.period) <= now {
		s.lastReplenish = s.lastReplenish.Add(s.period)
		target := s.budget - replenishShort // replenishShort is 0 outside mutation builds
		if s.obs != nil && s.remaining < target {
			s.obs.Replenished(s.tag, s.lastReplenish, target-s.remaining, target)
		}
		s.remaining = target
	}
}

// Consume depletes d of budget for execution beginning at instant start.
// It panics if d exceeds the remaining budget; the engine never grants a
// slice longer than Remaining.
func (s *Server) Consume(start vtime.Time, d vtime.Duration) {
	if d < 0 || d > s.remaining {
		panic(fmt.Sprintf("server: consume %v with %v remaining", d, s.remaining))
	}
	s.remaining -= d
	if s.policy == Sporadic && d > 0 {
		s.repl.q.Push(start.Add(s.period), d)
	}
	if s.obs != nil && d > 0 && s.remaining == 0 {
		s.obs.Depleted(s.tag, start.Add(d), 0)
	}
}

// NoteIdle tells the server that, at the current instant, the partition has
// no pending workload. A polling server discards its remaining budget (the
// defining property that prevents deferred-execution interference); the other
// policies retain it. It returns true if budget was discarded.
func (s *Server) NoteIdle(now vtime.Time) bool {
	if s.policy == Polling && s.remaining > 0 {
		discarded := s.remaining
		s.remaining = 0
		if s.obs != nil {
			s.obs.Depleted(s.tag, now, discarded)
		}
		return true
	}
	return false
}

// Deadline returns d_{i,t} = r_{i,t} + T_i, the current budget deadline used
// by the weighted random selection and by the schedulability test (Eq. 3).
func (s *Server) Deadline() vtime.Time { return s.lastReplenish.Add(s.period) }

// Utilization returns B_i/T_i.
func (s *Server) Utilization() float64 {
	return float64(s.budget) / float64(s.period)
}

// RemainingUtilization returns u_{i,t} = B_i(t) / (d_{i,t} - t), the quantity
// the weighted selection of §IV-A2 assigns as the lottery weight. It returns
// 0 when the deadline is not in the future.
func (s *Server) RemainingUtilization(now vtime.Time) float64 {
	den := s.Deadline().Sub(now)
	if den <= 0 {
		return 0
	}
	return float64(s.remaining) / float64(den)
}

// Reset restores the initial state: full budget, r = 0, no pending sporadic
// replenishments.
func (s *Server) Reset() {
	s.remaining = s.budget
	s.lastReplenish = 0
	if s.repl != nil {
		s.repl.q.Reset()
	}
}
