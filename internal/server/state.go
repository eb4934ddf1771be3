package server

// Snapshot/restore support: a Server's dynamic state as a plain value, plus
// deep cloning for engine forks. The static configuration (budget, period,
// policy) is deliberately not part of State — state is only ever restored
// into a server built with the identical configuration, and the engine's
// snapshot format pins that with a configuration fingerprint.

import (
	"fmt"

	"timedice/internal/eventq"
	"timedice/internal/vtime"
)

// State is the dynamic state of a Server: everything Reset clears. Repl holds
// the pending sporadic replenishment chunks in delivery order and is empty
// for the boundary-replenished policies.
type State struct {
	Remaining     vtime.Duration
	LastReplenish vtime.Time
	Repl          []eventq.Entry[vtime.Duration]
}

// SaveState captures the server's dynamic state, appending the replenishment
// entries to buf (pass nil, or a retained scratch to bound allocation). The
// server is not mutated.
func (s *Server) SaveState(buf []eventq.Entry[vtime.Duration]) State {
	if s.repl != nil {
		buf = s.repl.q.AppendAll(buf)
	}
	return State{
		Remaining:     s.remaining,
		LastReplenish: s.lastReplenish,
		Repl:          buf,
	}
}

// CheckState reports whether st is a valid state for this server's
// configuration. It accepts exactly the states SaveState can produce (given
// the same configuration), so decoders can funnel untrusted values through it
// before mutating anything.
func (s *Server) CheckState(st State) error {
	if st.Remaining < 0 || st.Remaining > s.budget {
		return fmt.Errorf("server: remaining %v outside [0, %v]", st.Remaining, s.budget)
	}
	if st.LastReplenish < 0 {
		return fmt.Errorf("server: negative last replenish %v", st.LastReplenish)
	}
	if len(st.Repl) > 0 && s.policy != Sporadic {
		return fmt.Errorf("server: %v policy with %d pending replenishments", s.policy, len(st.Repl))
	}
	var prev vtime.Time
	for _, e := range st.Repl {
		if e.At < prev {
			return fmt.Errorf("server: replenishment queue out of delivery order (%v after %v)", e.At, prev)
		}
		if e.At < 0 {
			return fmt.Errorf("server: negative replenishment instant %v", e.At)
		}
		if e.Val <= 0 || e.Val > s.budget {
			return fmt.Errorf("server: replenishment chunk %v outside (0, %v]", e.Val, s.budget)
		}
		prev = e.At
	}
	return nil
}

// LoadState restores a state captured by SaveState on a server with the same
// configuration. On error the server is unchanged. No observer callbacks
// fire: restoring is not a lifecycle event.
func (s *Server) LoadState(st State) error {
	if err := s.CheckState(st); err != nil {
		return err
	}
	s.remaining = st.Remaining
	s.lastReplenish = st.LastReplenish
	if s.repl != nil {
		s.repl.q.Load(st.Repl)
	}
	return nil
}

// CloneInto makes the zero Server dst an independent copy of s sharing no
// mutable memory with it, in place. The observer is not carried over — the
// new owner installs its own — and the drain scratch starts empty (it regrows
// on first use).
func (s *Server) CloneInto(dst *Server) {
	dst.remaining = s.remaining
	dst.lastReplenish = s.lastReplenish
	dst.period = s.period
	dst.budget = s.budget
	dst.policy = s.policy
	if s.repl != nil {
		dst.repl = new(replQueue)
		s.repl.q.CloneInto(&dst.repl.q)
	}
}
