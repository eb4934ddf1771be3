package check

import (
	"fmt"
	"math/bits"

	"timedice/internal/analysis"
	"timedice/internal/engine"
	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/server"
	"timedice/internal/telemetry"
	"timedice/internal/vtime"
)

// Oracle names, used in Violation.Oracle and the EXPERIMENTS.md inventory.
const (
	OracleConservation = "conservation" // budget ledger: 0 ≤ remaining ≤ B, no overdraw, event payloads consistent
	OracleReplenish    = "replenish"    // per-policy replenishment rules (boundaries, discards, sporadic ledger)
	OracleVTime        = "vtime"        // virtual-time monotonicity and slice contiguity
	OracleWork         = "work"         // only runnable partitions execute; slices match decisions
	OraclePriority     = "priority"     // NoRandom ≡ strict priority: no inversions, min-index pick
	OracleStarvation   = "starvation"   // supply guarantee: a backlogged partition drains B every period
	OracleDifferential = "differential" // schedulable ⇒ no misses, observed WCRT ≤ analytic bound
	OracleCounters     = "counters"     // engine Counters agree with the event stream
)

// Violation is one oracle failure, stamped with the virtual time at which it
// was detected.
type Violation struct {
	Oracle string
	Time   vtime.Time
	Msg    string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%v [%s] %s", v.Time, v.Oracle, v.Msg)
}

// maxViolations caps the retained violation list; beyond it only the total
// count grows (a single broken invariant fires on nearly every event).
const maxViolations = 64

// taskLedger tracks one task's observed responses against its analytic bound.
type taskLedger struct {
	bound vtime.Duration // Unschedulable ⇒ unchecked
	// certified arms the zero-deadline-miss claim for this task: the system
	// passed the conservative schedulability test and the task's analytic
	// bound fits its deadline, so any observed miss falsifies schedulability
	// preservation.
	certified   bool
	maxResp     vtime.Duration
	completions int64
}

// partLedger is the reconstructed state of one partition, rebuilt purely from
// the event stream.
type partLedger struct {
	name   string
	budget vtime.Duration
	period vtime.Duration
	srv    server.Policy

	remaining vtime.Duration // reconstructed B_i(t)
	pending   int            // released, not-yet-completed jobs
	// depleteDue is set by an execution-caused KindBudgetDeplete; the next
	// slice of this partition must drain the ledger to exactly zero.
	depleteDue bool

	// Sporadic-server ledger: cumulative consumption/replenishment plus the
	// trailing window of consumption chunks (sliding-window supply bound).
	cumConsumed    vtime.Duration
	cumReplenished vtime.Duration
	window         []sliceChunk

	// Per-period supply accounting for the starvation and supply-cap oracles.
	periodStart    vtime.Time
	consumedPeriod vtime.Duration
	everIdle       bool // partition had no backlog at some instant this period

	tasks map[string]*taskLedger
}

type sliceChunk struct {
	start vtime.Time
	dur   vtime.Duration
}

// Suite is the full oracle set attached to one simulated system as its
// telemetry sink. Construct with NewSuite, attach with AttachTelemetry, run
// the simulation, then call Finish and (optionally) CheckCounters before
// reading Violations.
type Suite struct {
	spec model.SystemSpec
	kind policies.Kind

	// missFree: the analyses certify zero deadline misses (differential gate).
	// schedulable: per-period supply is guaranteed (starvation gate).
	missFree    bool
	schedulable bool

	parts []*partLedger

	violations []Violation
	violTotal  int

	digest   uint64
	events   int64
	sliceEnd vtime.Time // frontier: end of the last slice (slices start here)
	lastPick int        // pick of the most recent decision; -2 before any

	busy, idle vtime.Duration
	decisions  int64
	misses     int64
	invOpens   int64
	finished   bool
}

var _ telemetry.Sink = (*Suite)(nil)

// NewSuite builds the oracle suite for a system about to be simulated under
// the given global policy. Only the schedulability-preserving policies are
// supported (NoRandom, TimeDiceU, TimeDiceW): TDMA is not work-conserving and
// its slot table invalidates the supply-based oracles.
func NewSuite(spec model.SystemSpec, kind policies.Kind) (*Suite, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch kind {
	case policies.NoRandom, policies.TimeDiceU, policies.TimeDiceW:
	default:
		return nil, fmt.Errorf("check: unsupported policy %v", kind)
	}
	s := &Suite{
		spec:        spec,
		kind:        kind,
		missFree:    GuaranteedMissFree(spec),
		schedulable: analysis.SystemSchedulableConservative(spec),
		lastPick:    -2,
		digest:      fnvOffset,
	}
	for pi, p := range spec.Partitions {
		pl := &partLedger{
			name:      p.Name,
			budget:    p.Budget,
			period:    p.Period,
			srv:       serverOf(p),
			remaining: p.Budget,
			everIdle:  true, // no backlog yet at t=0
			tasks:     make(map[string]*taskLedger, len(p.Tasks)),
		}
		for tj, t := range p.Tasks {
			if _, dup := pl.tasks[t.Name]; dup {
				return nil, fmt.Errorf("check: partition %q has duplicate task name %q", p.Name, t.Name)
			}
			b := Bound(spec, pi, tj, kind)
			pl.tasks[t.Name] = &taskLedger{
				bound:     b,
				certified: s.schedulable && b != analysis.Unschedulable && b <= effectiveDeadline(t),
			}
		}
		s.parts = append(s.parts, pl)
	}
	return s, nil
}

// Digest returns the FNV-1a digest of every event observed so far. Two runs
// of the same scenario must produce identical digests (the determinism
// contract simfuzz cross-checks).
func (s *Suite) Digest() uint64 { return s.digest }

// Events returns the number of events observed.
func (s *Suite) Events() int64 { return s.events }

// Violations returns the retained violations (capped at maxViolations) and
// the total count observed.
func (s *Suite) Violations() ([]Violation, int) { return s.violations, s.violTotal }

func (s *Suite) fail(oracle string, at vtime.Time, format string, args ...any) {
	s.violTotal++
	if len(s.violations) < maxViolations {
		s.violations = append(s.violations, Violation{Oracle: oracle, Time: at, Msg: fmt.Sprintf(format, args...)})
	}
}

// FNV-1a 64-bit.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// fnvPow[k] is fnvPrime^k mod 2^64: folding k zero bytes.
var fnvPow = func() (p [9]uint64) {
	for k, x := 0, uint64(1); k < len(p); k, x = k+1, x*fnvPrime {
		p[k] = x
	}
	return p
}()

// fnvFold folds the eight little-endian bytes of v into h. The contract is
// byte-wise FNV-1a, h ← (h ⊕ b)·p for each byte b; this is an exact shortcut
// for it. A zero byte's step is h ← h·p, so the k high zero bytes of v fold
// to one multiply by p^k, and only the significant low bytes need the serial
// xor-multiply. Kind, Partition and Job have seven high zero bytes on almost
// every event.
func fnvFold(h, v uint64) uint64 {
	n := (bits.Len64(v) + 7) / 8
	for i := 0; i < n; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h * fnvPow[8-n]
}

// hashEvent folds one event into a running FNV-1a digest: every field's bytes
// in declaration order, integers as eight little-endian bytes and the task
// name as its raw bytes. It is the single definition of the event-stream
// digest: Suite.Digest, Digester, simfuzz's combined campaign digest, and the
// post-mortem replay check (FoldEvents from DigestSeed) all derive from it.
func hashEvent(h uint64, e telemetry.Event) uint64 {
	h = fnvFold(h, uint64(e.Time))
	h = fnvFold(h, uint64(e.Kind))
	h = fnvFold(h, uint64(int64(e.Partition)))
	for i := 0; i < len(e.Task); i++ {
		h = (h ^ uint64(e.Task[i])) * fnvPrime
	}
	h = fnvFold(h, uint64(e.Job))
	h = fnvFold(h, uint64(e.Dur))
	h = fnvFold(h, uint64(e.Aux))
	return h
}

// DigestSeed is the initial value of the event-stream digest (the FNV-1a
// offset basis). Folding a complete stream from DigestSeed with FoldEvents
// (or a Digester) gives the digest a Suite attached to the live run reports,
// so a post-mortem bundle whose events.jsonl covers the whole run replays to
// the live digest — the property the flight-recorder tests pin.
const DigestSeed uint64 = fnvOffset

// FoldEvents folds a slice of events into a running digest. For any split
// point, FoldEvents(DigestSeed, all) ==
// FoldEvents(FoldEvents(DigestSeed, prefix), suffix) — which is what lets a
// snapshot carry a prefix digest and the restored run's suffix continue it.
func FoldEvents(h uint64, events []telemetry.Event) uint64 {
	for _, e := range events {
		h = hashEvent(h, e)
	}
	return h
}

// part resolves the event's partition index, reporting out-of-range indices.
func (s *Suite) part(e telemetry.Event) *partLedger {
	if e.Partition < 0 || e.Partition >= len(s.parts) {
		s.fail(OracleConservation, e.Time, "%v event for invalid partition index %d", e.Kind, e.Partition)
		return nil
	}
	return s.parts[e.Partition]
}

// noteBacklog records the partition's backlog state for the starvation
// oracle: observing an instant with no pending work voids the current
// period's supply guarantee (an idle partition forfeits — polling — or simply
// does not demand its budget).
func (p *partLedger) noteBacklog() {
	if p.pending == 0 {
		p.everIdle = true
	}
}

// advancePeriods closes every per-period accounting window ending at or
// before upTo (strictly before when inclusive is false — used for events
// stamped at a slice end, which precede the boundary processing of the same
// instant in the stream).
func (s *Suite) advancePeriods(p *partLedger, upTo vtime.Time, inclusive bool) {
	for {
		end := p.periodStart.Add(p.period)
		if end > upTo || (!inclusive && end == upTo) {
			return
		}
		s.closePeriod(p, end)
		p.periodStart = end
		p.consumedPeriod = 0
		p.everIdle = p.pending == 0
	}
}

func (s *Suite) closePeriod(p *partLedger, end vtime.Time) {
	// Supply cap: one replenishment period never supplies more than B. For
	// the boundary-replenished policies the aligned window [kT,(k+1)T) holds
	// at most one full budget; for the sporadic server the same window is an
	// instance of the sliding-window bound.
	if p.consumedPeriod > p.budget {
		s.fail(OracleConservation, end,
			"%s consumed %v in period ending %v, budget is %v", p.name, p.consumedPeriod, end, p.budget)
	}
	// Starvation (Theorem 1's supply guarantee): a partition that was
	// backlogged at every observed instant of the period must have drained
	// its full budget by the boundary. Gated on the conservative offline
	// test — without it the guarantee does not hold even under NoRandom —
	// and on the boundary-replenished policies (the sporadic server's budget
	// arrives in chunks, so a full B need not be available within one
	// aligned period).
	if s.schedulable && p.srv != server.Sporadic && !p.everIdle && p.consumedPeriod < p.budget {
		s.fail(OracleStarvation, end,
			"%s was backlogged all period ending %v but consumed only %v of %v",
			p.name, end, p.consumedPeriod, p.budget)
	}
}

// runnableTop returns the index of the highest-priority partition that is
// runnable per the reconstructed ledger (budget remaining and backlog), or -1.
func (s *Suite) runnableTop() int {
	for i, p := range s.parts {
		if p.remaining > 0 && p.pending > 0 {
			return i
		}
	}
	return -1
}

// Event implements telemetry.Sink: every event is hashed, checked against the
// stream-ordering contract, and dispatched to the per-kind oracles.
func (s *Suite) Event(e telemetry.Event) {
	s.events++
	s.digest = hashEvent(s.digest, e)

	// Virtual-time contract: slices tile the timeline contiguously from 0;
	// every other event is stamped at or after the end of the last slice
	// (events inside a slice are emitted before the slice record itself).
	if e.Kind == telemetry.KindSlice {
		if e.Time != s.sliceEnd {
			s.fail(OracleVTime, e.Time, "slice starts at %v, previous slice ended at %v", e.Time, s.sliceEnd)
		}
		if e.Dur <= 0 {
			s.fail(OracleVTime, e.Time, "non-positive slice length %v", e.Dur)
		}
	} else if e.Time < s.sliceEnd {
		s.fail(OracleVTime, e.Time, "%v event at %v is before the schedule frontier %v", e.Kind, e.Time, s.sliceEnd)
	}

	switch e.Kind {
	case telemetry.KindTaskArrival:
		p := s.part(e)
		if p == nil {
			return
		}
		s.advancePeriods(p, e.Time, true)
		p.noteBacklog()
		p.pending++

	case telemetry.KindTaskComplete:
		p := s.part(e)
		if p == nil {
			return
		}
		s.advancePeriods(p, e.Time, false)
		p.pending--
		if p.pending < 0 {
			s.fail(OracleConservation, e.Time, "%s completed more jobs than arrived", p.name)
			p.pending = 0
		}
		p.noteBacklog()
		if tl := p.tasks[e.Task]; tl != nil {
			tl.completions++
			if e.Dur > tl.maxResp {
				tl.maxResp = e.Dur
			}
		}

	case telemetry.KindTaskStart, telemetry.KindTaskPreempt:
		// Lifecycle-only; no ledger effect.

	case telemetry.KindDeadlineMiss:
		s.misses++
		if p := s.part(e); p != nil {
			if tl := p.tasks[e.Task]; tl != nil && tl.certified {
				s.fail(OracleDifferential, e.Time,
					"deadline miss by %s job %d (lateness %v) despite analytic certification under %v",
					e.Task, e.Job, e.Dur, s.kind)
			}
		}

	case telemetry.KindBudgetReplenish:
		p := s.part(e)
		if p == nil {
			return
		}
		s.advancePeriods(p, e.Time, true)
		if e.Dur <= 0 {
			s.fail(OracleReplenish, e.Time, "%s replenished a non-positive amount %v", p.name, e.Dur)
		}
		p.remaining += e.Dur
		if p.remaining > p.budget {
			s.fail(OracleConservation, e.Time, "%s replenished past its budget: %v > %v", p.name, p.remaining, p.budget)
			p.remaining = p.budget
		}
		if vtime.Duration(e.Aux) != p.remaining {
			s.fail(OracleConservation, e.Time,
				"%s replenish event reports %v remaining, ledger has %v", p.name, vtime.Duration(e.Aux), p.remaining)
		}
		switch p.srv {
		case server.Polling, server.Deferrable:
			if int64(e.Time)%int64(p.period) != 0 {
				s.fail(OracleReplenish, e.Time, "%s (%v) replenished off the period boundary grid (T=%v)", p.name, p.srv, p.period)
			}
			if p.remaining != p.budget {
				s.fail(OracleReplenish, e.Time, "%s (%v) boundary replenish left %v, must restore full %v", p.name, p.srv, p.remaining, p.budget)
			}
		case server.Sporadic:
			p.cumReplenished += e.Dur
			if p.cumReplenished > p.cumConsumed {
				s.fail(OracleReplenish, e.Time,
					"%s (sporadic) replenished %v total but consumed only %v — budget created from nothing",
					p.name, p.cumReplenished, p.cumConsumed)
			}
		}
		p.noteBacklog()

	case telemetry.KindBudgetDeplete:
		p := s.part(e)
		if p == nil {
			return
		}
		if e.Aux == 1 { // idle discard
			s.advancePeriods(p, e.Time, true)
			if p.srv != server.Polling {
				s.fail(OracleReplenish, e.Time, "%s (%v) discarded budget; only the polling server discards", p.name, p.srv)
			}
			if e.Dur != p.remaining {
				s.fail(OracleConservation, e.Time, "%s discarded %v, ledger had %v", p.name, e.Dur, p.remaining)
			}
			if p.pending != 0 {
				s.fail(OracleReplenish, e.Time, "%s discarded budget with %d jobs pending", p.name, p.pending)
			}
			p.remaining = 0
			p.noteBacklog()
		} else { // consumed by execution; the matching slice record follows
			s.advancePeriods(p, e.Time, false)
			if e.Dur != 0 {
				s.fail(OracleConservation, e.Time, "%s execution-deplete event carries discard amount %v", p.name, e.Dur)
			}
			p.depleteDue = true
		}

	case telemetry.KindDecision:
		s.decisions++
		for _, p := range s.parts {
			s.advancePeriods(p, e.Time, true)
		}
		top := s.runnableTop()
		s.lastPick = e.Partition
		if e.Partition >= 0 {
			p := s.part(e)
			if p != nil && !(p.remaining > 0 && p.pending > 0) {
				s.fail(OracleWork, e.Time,
					"decision picked %s which is not runnable (remaining %v, pending %d)", p.name, p.remaining, p.pending)
			}
		}
		if s.kind == policies.NoRandom && e.Partition != top {
			s.fail(OraclePriority, e.Time,
				"NoRandom picked partition %d; strict fixed priority demands %d", e.Partition, top)
		}

	case telemetry.KindInversionOpen:
		s.invOpens++
		if s.kind == policies.NoRandom {
			s.fail(OraclePriority, e.Time, "priority-inversion window opened under NoRandom")
		}

	case telemetry.KindInversionClose:
		// Window length is cross-checked in aggregate via Counters.

	case telemetry.KindSlice:
		start := e.Time
		s.sliceEnd = e.Time.Add(e.Dur)
		if e.Partition < 0 {
			s.idle += e.Dur
			if s.lastPick != -1 {
				s.fail(OracleWork, start, "idle slice but the decision picked partition %d", s.lastPick)
			}
			return
		}
		p := s.part(e)
		if p == nil {
			return
		}
		if e.Partition != s.lastPick {
			s.fail(OracleWork, start, "slice ran %s but the decision picked %d", p.name, s.lastPick)
		}
		s.busy += e.Dur
		s.advancePeriods(p, start, true)
		if e.Dur > p.remaining {
			s.fail(OracleConservation, start,
				"%s executed %v with only %v budget remaining (overdraw)", p.name, e.Dur, p.remaining)
			p.remaining = 0
		} else {
			p.remaining -= e.Dur
		}
		p.consumedPeriod += e.Dur
		p.cumConsumed += e.Dur
		if p.srv == server.Sporadic {
			s.checkSlidingWindow(p, start, e.Dur)
		}
		if p.depleteDue {
			if p.remaining != 0 {
				s.fail(OracleConservation, s.sliceEnd,
					"%s reported budget depletion but the ledger still holds %v", p.name, p.remaining)
			}
			p.depleteDue = false
		}
		p.noteBacklog()

	default:
		s.fail(OracleVTime, e.Time, "unknown event kind %d", e.Kind)
	}
}

// checkSlidingWindow enforces the sporadic server's defining property: the
// consumption inside any window of length T never exceeds B. It is evaluated
// at every chunk end (the binding instants), counting partial overlap of the
// oldest chunk.
func (s *Suite) checkSlidingWindow(p *partLedger, start vtime.Time, dur vtime.Duration) {
	p.window = append(p.window, sliceChunk{start: start, dur: dur})
	end := start.Add(dur)
	winStart := end.Add(-p.period)
	// Drop chunks that ended at or before the window start.
	keep := 0
	for _, c := range p.window {
		if c.start.Add(c.dur) > winStart {
			p.window[keep] = c
			keep++
		}
	}
	p.window = p.window[:keep]
	var sum vtime.Duration
	for _, c := range p.window {
		cs, ce := c.start, c.start.Add(c.dur)
		if cs < winStart {
			cs = winStart
		}
		sum += ce.Sub(cs)
	}
	if sum > p.budget {
		s.fail(OracleReplenish, end,
			"%s (sporadic) consumed %v inside the window (%v, %v], budget is %v",
			p.name, sum, winStart, end, p.budget)
	}
}

// Finish closes the suite at the end of the run: the schedule must tile the
// whole horizon, and every task's observed worst response is checked against
// its analytic bound. It returns the retained violations. Finish is
// idempotent; events arriving after it are not expected.
func (s *Suite) Finish(end vtime.Time) []Violation {
	if s.finished {
		return s.violations
	}
	s.finished = true
	if s.events > 0 && s.sliceEnd != end {
		s.fail(OracleVTime, end, "schedule ends at %v, run horizon is %v", s.sliceEnd, end)
	}
	for pi, ps := range s.spec.Partitions {
		p := s.parts[pi]
		for _, ts := range ps.Tasks {
			tl := p.tasks[ts.Name]
			if tl == nil || tl.bound == analysis.Unschedulable || tl.completions == 0 {
				continue
			}
			if tl.maxResp > tl.bound {
				s.fail(OracleDifferential, end,
					"%s/%s observed WCRT %v exceeds the %v analytic bound %v",
					p.name, ts.Name, tl.maxResp, s.kind, tl.bound)
			}
		}
	}
	return s.violations
}

// CheckCounters cross-checks the engine's aggregate counters against the
// event stream: every quantity the engine tallies independently must agree
// with what the events imply. horizon is the simulated length of the run.
func (s *Suite) CheckCounters(c *engine.Counters, horizon vtime.Duration) {
	at := vtime.Time(0).Add(horizon)
	if c.DeadlineMisses != s.misses {
		s.fail(OracleCounters, at, "engine counted %d deadline misses, stream has %d", c.DeadlineMisses, s.misses)
	}
	if c.InversionWindows != s.invOpens {
		s.fail(OracleCounters, at, "engine counted %d inversion windows, stream has %d", c.InversionWindows, s.invOpens)
	}
	if c.Decisions != s.decisions {
		s.fail(OracleCounters, at, "engine counted %d decisions, stream has %d", c.Decisions, s.decisions)
	}
	if c.BusyTime != s.busy {
		s.fail(OracleCounters, at, "engine busy time %v, stream slices sum to %v", c.BusyTime, s.busy)
	}
	if c.IdleTime != s.idle {
		s.fail(OracleCounters, at, "engine idle time %v, stream idle slices sum to %v", c.IdleTime, s.idle)
	}
	if s.busy+s.idle != horizon {
		s.fail(OracleCounters, at, "slices cover %v of the %v horizon", s.busy+s.idle, horizon)
	}
	// The defensive minimum-advance fallback fires only when a policy hands
	// the engine a horizon at or before now. Every built-in bound (budget
	// exhaustion, local events, quantum, replenishments) is strictly in the
	// future, so a nonzero count means a policy bug that silently degrades
	// the simulation to tick-stepping — flag it, don't paper over it.
	if c.MinAdvances != 0 {
		s.fail(OracleCounters, at, "engine took %d minimum-advance fallback steps (policy returned a non-advancing horizon)", c.MinAdvances)
	}
}
