// Package engine is the hierarchical scheduling simulator: a discrete-event
// engine that reproduces the two-level scheduling of the paper's Fig. 1.
// At every scheduling decision point — task arrival, task completion, budget
// depletion, budget replenishment, or quantum expiry — the engine asks the
// configured global policy which partition takes the CPU, then lets that
// partition's local fixed-priority scheduler run its tasks until the next
// decision point, depleting the partition's budget for the amount executed.
//
// The engine is single-threaded and deterministic: given the same
// configuration and seed it produces the identical schedule, which the test
// suite relies on.
package engine

import (
	"errors"
	"fmt"
	"time"

	"timedice/internal/bitset"
	"timedice/internal/eventq"
	"timedice/internal/partition"
	"timedice/internal/rng"
	"timedice/internal/server"
	"timedice/internal/shard"
	"timedice/internal/stats"
	"timedice/internal/task"
	"timedice/internal/telemetry"
	"timedice/internal/vtime"
)

// GlobalPolicy selects the partition to execute at each decision point.
//
// Pick returns the partition that takes the CPU for the upcoming slice, or
// nil to idle the CPU. Implementations must only return partitions that are
// Runnable, or nil. Quantum bounds the slice length for randomizing policies
// (the paper's MIN_INV_SIZE); a zero quantum means the slice runs until the
// next natural event, which is the behaviour of the default (NoRandom)
// scheduler.
type GlobalPolicy interface {
	Name() string
	Quantum() vtime.Duration
	Pick(sys *System, now vtime.Time) *partition.Partition
}

// BoundaryPolicy is an optional extension of GlobalPolicy for policies with
// their own decision boundaries beyond a fixed quantum (e.g. TDMA slot
// edges). NextBoundary returns the next instant strictly after now at which
// the policy must be consulted again.
type BoundaryPolicy interface {
	NextBoundary(now vtime.Time) vtime.Time
}

// DecisionDetailer is an optional extension of GlobalPolicy that reports
// detail about the most recent Pick: the candidate-set size considered and
// the number of schedulability tests run. The engine attaches the candidate
// count to the telemetry KindDecision event when available.
type DecisionDetailer interface {
	DecisionDetail() (candidates, tests int64)
}

// Segment is one maximal interval of the schedule trace during which the CPU
// ran a single partition (or idled).
type Segment struct {
	Start, End vtime.Time
	// Partition is the index of the executing partition in the system's
	// priority-ordered slice, or -1 for idle time.
	Partition int
}

// Counters aggregates the schedule statistics reported in Table V and
// Fig. 17 of the paper. Every integer field has exactly one row in
// CounterRows, whose class (State, Work or Host) decides what snapshots,
// Fork, merges, live exposition and the differentials do with it: a new
// counter is one field here plus one row there.
type Counters struct {
	Decisions     int64          // global scheduling decisions made
	Switches      int64          // decisions whose outcome differed from the previous one
	IdleDecisions int64          // decisions that chose to idle
	BusyTime      vtime.Duration // CPU time spent executing partitions
	IdleTime      vtime.Duration // CPU time spent idle
	// PolicyTime and PolicySamples accumulate the wall-clock time inside Pick
	// (Fig. 17) and the number of timed calls. They are maintained only when
	// System.MeasureLatency is set — the unmeasured hot path makes no clock
	// syscalls at all — and are zero otherwise. Host rows.
	PolicyTime    time.Duration
	PolicySamples int64
	// ShardMergeTime always reads zero: the engine steps every system on one
	// goroutine, so there is no sharded due-set merge to time.
	//
	// Deprecated: kept only because cmd/benchrec, a separate module, still
	// reports it as shard.merge_ns_per_step. It goes with that row.
	ShardMergeTime time.Duration

	// DeadlineMisses counts jobs that completed after their absolute
	// deadline (arrival + relative deadline). Jobs still pending when the
	// run ends are not counted. Always maintained.
	DeadlineMisses int64
	// InversionWindows and InversionTime count/accumulate the
	// priority-inversion windows of the schedule: maximal runs of decisions
	// during which the CPU ran a partition (or idled) while a strictly
	// higher-priority partition was runnable. They are maintained only while
	// a telemetry sink is attached, because the detection scan is extra
	// hot-path work the nil-sink configuration must not pay.
	InversionWindows int64
	InversionTime    vtime.Duration
	// PolicyLatency is the streaming quantile sketch (microseconds) of
	// individual Pick wall-clock latencies, populated when MeasureLatency is
	// set: exact up to 1024 samples, within 1% relative value error after
	// that, in bounded memory regardless of run length. Allocated before
	// the first measured step and retained (emptied, capacity kept) across
	// Reset, so a reused system replays measured trials allocation-free.
	PolicyLatency *stats.Sketch

	// MinAdvances counts activations of the defensive minimum-advance
	// fallback: steps where every horizon bound collapsed to now and the
	// engine forced a 1µs advance to keep the simulation moving. Well-behaved
	// policies never trigger it — the simfuzz oracles treat a non-zero count
	// as a violation — so it is a tripwire for misbehaving custom policies.
	MinAdvances int64

	// ArenaBytesTouched is a deterministic proxy for the step loop's cache
	// traffic: bytes of engine-owned hot state (arena slots, heap nodes,
	// bitset words) the stepping algorithm reads or writes per step, charging
	// one 64-byte line for every pointer-chased partition visit (deliver,
	// NoteIdle, execute). It is not a hardware measurement — it counts what
	// the algorithm touches, so a quiescent partition costs zero bytes per
	// step, against a full visit per step under the tests' O(P) reference
	// stepper, which is exactly
	// the contrast BenchmarkEngineStepScale's B/qpart metric and the obs
	// /metrics arena-bytes exposition quantify. Always maintained (a handful
	// of integer adds per step, no memory traffic of its own).
	ArenaBytesTouched int64

	// FixpointIters and InterferenceTerms are the decision-cost proxies of
	// the Algorithm-3 kernel, maintained by the TimeDice policy (zero under
	// non-TimeDice policies): busy-interval fixpoint iterations run, and
	// interference terms actually evaluated (one CeilDiv-and-accumulate
	// each). The policy runs the same kernel under step and under the
	// tests' scan stepper, so the indexed-vs-scan differential pins both
	// counters equal. Against
	// the plain-division reference, FixpointIters is path-independent (the
	// divisionless kernel replays the reference iteration sequence exactly)
	// while InterferenceTerms is not: the reference re-sums every charged
	// stream each iteration and the incremental kernel advances only the
	// streams whose next arrival was crossed. Both depend on verdict-cache
	// warmth (a cache hit skips the fixpoint entirely), so they are Work
	// rows: outside the snapshot/fork digest contract, zero after
	// Restore/Fork.
	FixpointIters     int64
	InterferenceTerms int64
}

// Cache-traffic proxy constants for Counters.ArenaBytesTouched. The arena
// stride is one partition's slot across the four hot arrays the engine owns
// (heap key + remaining + deadline + supply, 8 bytes each); a partition visit
// charges one cache line for the partition's record (its server and local
// scheduler, see partition.Partition); a heap node is one IndexMin position
// (int32 id + 8-byte key).
const (
	arenaStrideBytes = 4 * 8
	partVisitBytes   = 64
	heapNodeBytes    = 12
)

// System is a complete simulated system: partitions under one global policy.
type System struct {
	// Partitions in decreasing priority order (index 0 = highest).
	Partitions []*partition.Partition
	Policy     GlobalPolicy
	Rand       *rng.Rand

	// TraceFn, when non-nil, receives every schedule segment as it is
	// produced. Segments are contiguous and non-overlapping.
	TraceFn func(Segment)
	// MeasureLatency streams the wall-clock latency of every Pick call into
	// the Counters.PolicyLatency sketch (Table IV). Off by default.
	MeasureLatency bool

	Counters Counters

	now     vtime.Time
	running int // index of last picked partition, or -1
	perPart []vtime.Duration

	// evq caches each partition's next local event (HotState.NextEvent:
	// earliest replenishment or task arrival) as the key of a 4-ary
	// index-min heap, evq.Key(i). A key is exact between refreshes: a
	// partition's next event can only change when events due at or before
	// now are delivered to it, or when it executes (budget consumption
	// schedules the replacement replenishment) — both sites refresh it
	// through publishHot. The heap answers the two questions step asks —
	// "who is due?" (CollectDue) and "what is the earliest future event?"
	// (MinKey) — in time proportional to the answer instead of O(P), so step
	// skips quiescent partitions entirely. Keys start at zero so the first
	// step touches everyone (task arrival anchors are computed lazily on
	// first delivery).
	evq *eventq.IndexMin
	// ready is a two-level hierarchical bitset over partition indices with
	// bit i set iff Partitions[i].Runnable() (active server ∧ ready work). It
	// is refreshed at the only sites where runnability can change — event
	// delivery and execution — and backs Runnable, FirstRunnable, and the
	// inversion check. Scans descend only into occupied
	// 64-partition groups, so at P=16384 with a handful of runnable
	// partitions a walk touches the 4 summary words plus one or two group
	// words instead of 256. NoteIdle never flips a bit: it only fires on
	// partitions with no ready work, which are not runnable before or after
	// the discard.
	ready *bitset.Hier
	// hotRemaining/hotDeadline/hotSupply are the struct-of-arrays hot-state
	// arenas: contiguous mirrors of each partition's B_i(t), budget deadline
	// d_{i,t}, and earliest future supply instant, refreshed at exactly the
	// sites that can move them — event delivery (publishHot), execution
	// (publishHot), and an idle-budget discard (remaining only). hotBudget
	// and hotPeriod are the constant B_i/T_i columns, filled once. Together
	// with the heap keys they are the per-step working set: a step over a
	// mostly quiescent system reads a few contiguous cache lines here instead
	// of visiting P partition records. core.Policy's batched Algorithm-3
	// path reads them through Hot() — the same exactness contract as the
	// heap keys applies (any engine-side mutation of a quantity mirrored
	// here must go through publishHot), and internal/gen's
	// TestReferenceDigestsMatch pins it: its reference policy re-reads the
	// live servers, so a stale arena entry flips a decision and shows up as
	// a digest mismatch.
	hotRemaining []vtime.Duration
	hotDeadline  []vtime.Time
	hotSupply    []vtime.Time
	hotBudget    []vtime.Duration
	hotPeriod    []vtime.Duration
	// hotRecip is the constant magic-reciprocal column paired with hotPeriod:
	// the divisionless form of each partition's period, precomputed once per
	// configuration (initHotArenas) so the batched Algorithm-3 kernel's
	// interference sums run without a single hardware divide. Exactness is
	// unconditional (vtime.Reciprocal), so the arena carries no extra
	// invalidation obligations — it is as constant as hotPeriod itself.
	hotRecip []vtime.Reciprocal
	// dueBuf is the reusable scratch for the delivery phase's due set, and
	// dueMark the always-empty-between-steps set that puts it in ascending
	// order (sortDue).
	dueBuf  []int32
	dueMark *bitset.Hier
	// touched is the sum of sortDue's gather loads; nothing reads it.
	touched int64

	// runnableBuf is the reusable backing array for Runnable.
	runnableBuf []*partition.Partition

	// epoch and stamps drive the incremental schedulability-verdict cache
	// (core.Cache). epoch counts discontinuous state changes; stamps[i] is the
	// epoch value at partition i's most recent one — job release, completion,
	// budget depletion, replenishment delivery, a silent period-boundary
	// advance, or a sporadic server scheduling a future supply chunk. Between
	// stamps a partition's scheduling state evolves only by the passage of
	// time (budget draining while it runs), which cached verdicts account for.
	epoch  uint64
	stamps []uint64

	sink     telemetry.Sink // nil ⇒ telemetry disabled (fast path)
	invOpen  bool           // an inversion window is currently open
	invStart vtime.Time
}

// ErrNoPartitions is returned by New when the partition list is empty.
var ErrNoPartitions = errors.New("engine: system needs at least one partition")

// New assembles a system. Partitions are sorted by priority internally; the
// priorities must be unique. A nil Rand defaults to seed 1.
func New(parts []*partition.Partition, policy GlobalPolicy, rnd *rng.Rand) (*System, error) {
	if len(parts) == 0 {
		return nil, ErrNoPartitions
	}
	if policy == nil {
		return nil, errors.New("engine: nil global policy")
	}
	ordered := make([]*partition.Partition, len(parts))
	copy(ordered, parts)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].Priority < ordered[j-1].Priority; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	for i := 1; i < len(ordered); i++ {
		if ordered[i].Priority == ordered[i-1].Priority {
			return nil, fmt.Errorf("engine: duplicate partition priority %d (%q, %q)",
				ordered[i].Priority, ordered[i-1].Name, ordered[i].Name)
		}
	}
	for i, p := range ordered {
		p.Index = i
	}
	if rnd == nil {
		rnd = rng.New(1)
	}
	s := &System{
		Partitions:   ordered,
		Policy:       policy,
		Rand:         rnd,
		running:      -1,
		perPart:      make([]vtime.Duration, len(ordered)),
		evq:          eventq.NewIndexMin(len(ordered)),
		ready:        bitset.New(len(ordered)),
		hotRemaining: make([]vtime.Duration, len(ordered)),
		hotDeadline:  make([]vtime.Time, len(ordered)),
		hotSupply:    make([]vtime.Time, len(ordered)),
		hotBudget:    make([]vtime.Duration, len(ordered)),
		hotPeriod:    make([]vtime.Duration, len(ordered)),
		hotRecip:     make([]vtime.Reciprocal, len(ordered)),
		dueBuf:       make([]int32, 0, len(ordered)),
		dueMark:      bitset.New(len(ordered)),
		runnableBuf:  make([]*partition.Partition, 0, len(ordered)),
		stamps:       make([]uint64, len(ordered)),
	}
	s.initHotArenas()
	s.observeAll()
	return s, nil
}

// observeAll installs the system as the lifecycle observer of every
// partition, tagged with the partition's index. It is installed
// unconditionally: it maintains the always-on Counters (deadline misses) and
// forwards to the telemetry sink when one is attached. With no sink each
// callback is a nil check. The observer is the System itself, so a callback
// touches the partition's record and the System and nothing else.
func (s *System) observeAll() {
	for _, p := range s.Partitions {
		p.SetObserver((*observer)(s))
	}
}

// AttachTelemetry connects a telemetry sink to the system. All subsequent
// scheduling activity is emitted as structured events (see package
// telemetry for the taxonomy). Pass nil to detach; detached, the emission
// paths reduce to nil checks and the engine benchmarks are unaffected.
// Attach before Run — events are not back-filled.
func (s *System) AttachTelemetry(sink telemetry.Sink) { s.sink = sink }

// Telemetry returns the attached sink, or nil.
func (s *System) Telemetry() telemetry.Sink { return s.sink }

// observer forwards every partition's job and budget lifecycle into the
// system: always-on counters plus the telemetry sink when attached. It is
// the System under a type whose methods do not join System's API; the
// callback tag is the partition's index.
type observer System

var _ partition.Observer = (*observer)(nil)

func (o *observer) JobReleased(part int, j *task.Job) {
	(*System)(o).bumpStamp(part)
	if sink := o.sink; sink != nil {
		sink.Event(telemetry.Event{
			Time: j.Arrival, Kind: telemetry.KindTaskArrival,
			Partition: part, Task: j.Task.Name, Job: j.Index,
		})
	}
}

func (o *observer) JobDispatched(part int, j *task.Job, at vtime.Time, first bool) {
	if sink := o.sink; sink != nil {
		var aux int64
		if first {
			aux = 1
		}
		sink.Event(telemetry.Event{
			Time: at, Kind: telemetry.KindTaskStart,
			Partition: part, Task: j.Task.Name, Job: j.Index, Aux: aux,
		})
	}
}

func (o *observer) JobPreempted(part int, j *task.Job, at vtime.Time) {
	if sink := o.sink; sink != nil {
		sink.Event(telemetry.Event{
			Time: at, Kind: telemetry.KindTaskPreempt,
			Partition: part, Task: j.Task.Name, Job: j.Index,
		})
	}
}

func (o *observer) JobCompleted(part int, c task.Completion) {
	(*System)(o).bumpStamp(part)
	lateness := c.Response - c.Job.Task.EffectiveDeadline()
	if lateness > 0 {
		o.Counters.DeadlineMisses++
	}
	if sink := o.sink; sink != nil {
		sink.Event(telemetry.Event{
			Time: c.Finish, Kind: telemetry.KindTaskComplete,
			Partition: part, Task: c.Job.Task.Name, Job: c.Job.Index,
			Dur: c.Response,
		})
		if lateness > 0 {
			sink.Event(telemetry.Event{
				Time: c.Finish, Kind: telemetry.KindDeadlineMiss,
				Partition: part, Task: c.Job.Task.Name, Job: c.Job.Index,
				Dur: lateness,
			})
		}
	}
}

func (o *observer) Replenished(part int, at vtime.Time, amount, remaining vtime.Duration) {
	(*System)(o).bumpStamp(part)
	if sink := o.sink; sink != nil {
		sink.Event(telemetry.Event{
			Time: at, Kind: telemetry.KindBudgetReplenish,
			Partition: part, Dur: amount, Aux: int64(remaining),
		})
	}
}

func (o *observer) Depleted(part int, at vtime.Time, discarded vtime.Duration) {
	(*System)(o).bumpStamp(part)
	if sink := o.sink; sink != nil {
		var aux int64
		if discarded > 0 {
			aux = 1
		}
		sink.Event(telemetry.Event{
			Time: at, Kind: telemetry.KindBudgetDeplete,
			Partition: part, Dur: discarded, Aux: aux,
		})
	}
}

// StateStamps returns the per-partition state stamps (see the field doc), in
// the same priority order as Partitions. The slice is owned by the System:
// read-only, valid until the next step.
func (s *System) StateStamps() []uint64 { return s.stamps }

// Epoch returns the current state epoch. Because every stamp bump assigns
// the freshly incremented epoch to the touched partition, Epoch always
// equals the maximum of StateStamps — an O(1) substitute for scanning them.
func (s *System) Epoch() uint64 { return s.epoch }

// bumpStamp records a discontinuous state change on partition i.
func (s *System) bumpStamp(i int) {
	s.epoch++
	s.stamps[i] = s.epoch
}

// publishHot writes one partition's freshly gathered hot-state snapshot into
// the struct-of-arrays arenas, the next-event heap, and the ready bitset.
// This is the single write path for everything a decision reads from the
// arenas; the two sites that can move any of these quantities — event
// delivery and execution — both funnel through it.
func (s *System) publishHot(i int, h partition.HotState) {
	s.hotRemaining[i] = h.Remaining
	s.hotDeadline[i] = h.Deadline
	s.hotSupply[i] = h.Supply
	s.evq.Update(i, h.NextEvent)
	if h.Runnable {
		s.ready.Set(i)
	} else {
		s.ready.Clear(i)
	}
}

// initHotArenas fills the constant arena columns (budget, period, and the
// period's magic reciprocal) from the server configuration and the variable
// columns from the servers' initial state (full budget, r = 0). It
// deliberately does not touch the local schedulers: task arrival anchors stay
// lazy until the first delivery, so spec transforms that rewrite offsets
// between build and run (BLINDER's release quantization) still take effect.
// The ready bits start clear — no jobs are released before the first step —
// and the heap keys start at zero, so the first step delivers to (and fully
// publishes) every partition. Both New and Reset run it, so the reciprocal
// constants are rederived alongside the other columns on reuse.
func (s *System) initHotArenas() {
	for i, p := range s.Partitions {
		srv := &p.Server
		s.hotBudget[i] = srv.Budget()
		s.hotPeriod[i] = srv.Period()
		s.hotRecip[i] = vtime.NewReciprocal(srv.Period())
		s.hotRemaining[i] = srv.Remaining()
		s.hotDeadline[i] = srv.Deadline()
		s.hotSupply[i] = srv.NextReplenish()
	}
}

// Hot is the read-only struct-of-arrays view of the per-partition scheduling
// state the engine maintains for its own stepping and for policies: one slice
// per quantity, indexed by partition priority order. See System.Hot.
type Hot struct {
	Remaining []vtime.Duration   // B_i(t)
	Budget    []vtime.Duration   // B_i (constant)
	Period    []vtime.Duration   // T_i (constant)
	Recip     []vtime.Reciprocal // T_i as a magic reciprocal (constant)
	Deadline  []vtime.Time       // d_{i,t} = r_{i,t} + T_i
	Supply    []vtime.Time       // earliest future budget gain
	Ready     *bitset.Hier       // bit i ⇔ Partitions[i].Runnable()
}

// Hot returns the arena view. The slices and bitset are owned by the System
// and must not be mutated; values are exact at every decision point (the
// engine republishes a partition's entries whenever delivery, execution, or
// an idle discard can move them), which is when policies read them.
// core.Policy's decision path aliases these slices directly, so a TimeDice
// decision at P=16384 reads a few contiguous cache lines instead of
// pointer-chasing every server. Like the ready set, the arenas only observe
// engine-driven mutation: a test that pokes servers directly must read them
// back from the servers (core.Snapshot).
func (s *System) Hot() Hot {
	return Hot{
		Remaining: s.hotRemaining,
		Budget:    s.hotBudget,
		Period:    s.hotPeriod,
		Recip:     s.hotRecip,
		Deadline:  s.hotDeadline,
		Supply:    s.hotSupply,
		Ready:     s.ready,
	}
}

// Now returns the current simulated instant.
func (s *System) Now() vtime.Time { return s.now }

// PartitionTime returns the accumulated CPU time of partition index i.
func (s *System) PartitionTime(i int) vtime.Duration { return s.perPart[i] }

// Runnable returns the partitions that are active and have ready work, in
// decreasing priority order. This is the candidate universe global policies
// choose from; under the polling server it equals the paper's list of active
// partitions L_t.
//
// The returned slice shares a scratch buffer owned by the System: it is valid
// only until the next Runnable call and must not be retained or mutated.
func (s *System) Runnable() []*partition.Partition {
	out := s.runnableBuf[:0]
	s.ready.ForEachSet(func(i int) bool {
		out = append(out, s.Partitions[i])
		return true
	})
	s.runnableBuf = out
	return out
}

// FirstRunnable returns the index of the highest-priority runnable partition,
// or -1 when nothing is runnable: a summary-guided first-set-bit probe
// (O(occupied groups), not O(P)). sched.FixedPriority picks through it, so
// the NoRandom decision never materializes the runnable slice.
func (s *System) FirstRunnable() int { return s.ready.First() }

// armLatency allocates the Pick-latency sketch before stepping when
// MeasureLatency is set. It survives Reset (emptied), so a reused system
// replays measured trials allocation-free.
func (s *System) armLatency() {
	if s.MeasureLatency && s.Counters.PolicyLatency == nil {
		s.Counters.PolicyLatency = stats.NewSketch()
	}
}

// Run advances the simulation until the given instant.
func (s *System) Run(until vtime.Time) {
	s.armLatency()
	for s.now < until {
		s.step(until)
	}
}

// RunFor advances the simulation by d.
func (s *System) RunFor(d vtime.Duration) { s.Run(s.now.Add(d)) }

// Step advances the simulation by exactly one decision step (or not at all if
// the clock has already reached until). Between Step calls the system is at a
// natural step boundary — the only instants at which Snapshot and Fork are
// valid: splitting a slice artificially would re-consult randomized policies
// mid-slice and diverge from the uninterrupted schedule.
func (s *System) Step(until vtime.Time) {
	s.armLatency()
	if s.now < until {
		s.step(until)
	}
}

// deliver applies all events due at or before now to partition i:
// replenishment-boundary advance and job releases, then publishes the
// partition's refreshed hot state (arenas, next-event heap, ready bit) in one
// gathered snapshot. Everything it reads of the partition — the server's
// budget fields, the scheduler's task state, the task descriptor, the job
// record and the observer tag — sits in the partition's one record.
func (s *System) deliver(i int, p *partition.Partition, now vtime.Time) {
	// Delivery can change the partition's replenishment anchors even without
	// firing an observer callback (a boundary advance that restores an
	// already-full budget), so the stamp bump is unconditional here.
	s.bumpStamp(i)
	p.Server.AdvanceTo(now)
	p.Local.ReleaseUpTo(now)
	s.publishHot(i, p.Hot())
}

// noteIdleTouched gives polling servers with no pending workload the chance
// to discard their budget, visiting only the partitions that can have newly
// entered the (active ∧ no-ready-work) state this step instead of all P.
//
// The touched set is due ∪ {previously running partition}, and it is
// exhaustive: a partition's ready count only changes when jobs are released
// to it (delivery — in due) or when its jobs complete (it executed last
// step — it is s.running, still the previous pick here since the new pick
// happens after this phase), and its server only becomes active through a
// replenishment (delivery — in due). Any partition outside the set that is
// idle-active now was already idle-active when it was last touched, and its
// server discarded then. The first step after construction or Reset
// delivers to every partition (the heap keys start at zero), which covers
// the initial full-budget/no-jobs state. Visiting in ascending index order
// replays the Depleted-event order of a scan over every partition exactly.
func (s *System) noteIdleTouched(now vtime.Time, due []int32) {
	prev := int32(-1)
	if s.running >= 0 {
		prev = int32(s.running)
	}
	merged := prev < 0
	for _, i := range due {
		if !merged && prev < i {
			s.noteIdleOne(int(prev), now)
			merged = true
		}
		if i == prev {
			merged = true
		}
		s.noteIdleOne(int(i), now)
	}
	if !merged {
		s.noteIdleOne(int(prev), now)
	}
}

func (s *System) noteIdleOne(i int, now vtime.Time) {
	p := s.Partitions[i]
	if !p.Local.HasReady() && p.Server.NoteIdle(now) {
		// Discarding leaves the partition non-runnable either way (no ready
		// work before and after), so the ready bit is already clear; only the
		// remaining-budget arena column moves.
		s.hotRemaining[i] = 0
	}
}

// sortDue puts the due set in ascending order by marking it in dueMark and
// walking the marks, then clears them again: O(due + occupied groups) and
// free of the data-dependent branches with which a comparison sort
// mispredicts through the bursts of simultaneously released partitions
// (about 170 at once in workload.Sparse(16384)).
//
// The marking loop also gathers the burst: it touches every cache line of
// each due record that delivery will read (partition.Touch). The loads of
// one record do not wait on another's, so the core keeps many misses in
// flight at once, and the deliveries that follow find their lines in cache
// instead of missing one record after another. The gather only reads: it
// initialises no arrival anchor, bumps no stamp and fires no callback, so
// delivery order and every event are unchanged. Its sum goes to touched,
// which keeps the loads from being dropped as dead code.
func (s *System) sortDue(due []int32) {
	var sum int64
	for _, i := range due {
		s.dueMark.Set(int(i))
		sum += s.Partitions[i].Touch()
	}
	s.touched = sum
	k := 0
	s.dueMark.ForEachSet(func(i int) bool {
		due[k] = int32(i)
		k++
		return true
	})
	for _, i := range due {
		s.dueMark.Clear(int(i))
	}
}

// step is one decision step: it delivers the due set, then hands the
// earliest pending local event to decideAndExecute as the starting horizon.
func (s *System) step(until vtime.Time) {
	now := s.now

	// Deliver every event due at or before now: replenishments and arrivals.
	// Partitions whose cached next event is still in the future are quiescent
	// and skipped — nothing is due for them. The due set comes from a pruned
	// heap descent and is sorted, so delivery runs in ascending partition
	// index, the order a scan over every partition would use.
	due := s.evq.CollectDue(now, s.dueBuf[:0])
	if len(due) > 1 {
		s.sortDue(due)
	}
	s.dueBuf = due
	for _, i := range due {
		s.deliver(int(i), s.Partitions[i], now)
	}
	s.noteIdleTouched(now, due)
	// Cache-traffic proxy: due partitions pay a full visit plus an arena
	// republish, the pruned heap descent touches at most 4·due+1 nodes, idle
	// notification visits due ∪ {previous pick}, and the ready-set walks read
	// the summary words plus the occupied groups. Quiescent partitions
	// contribute nothing.
	touched := int64(len(due))
	if s.running >= 0 {
		touched++
	}
	s.Counters.ArenaBytesTouched += int64(len(due))*(arenaStrideBytes+partVisitBytes) +
		(4*int64(len(due))+1)*heapNodeBytes +
		touched*partVisitBytes +
		int64(s.ready.SummaryWords()+s.ready.OccupiedGroups())*8 +
		8 // MinKey root read below

	// MinKey is the earliest pending local event of any partition.
	s.decideAndExecute(until, min(until, s.evq.MinKey()))
}

// decideAndExecute is the rest of a step once the due set is delivered: the
// global decision, then the slice bounded by horizon (the earliest pending
// local event, capped at until), the quantum and policy boundaries, and the
// pick's budget depletion and job completion, then execution and telemetry.
func (s *System) decideAndExecute(until, horizon vtime.Time) {
	now := s.now

	// Global scheduling decision. The clock reads exist only under
	// MeasureLatency; the default path makes no syscalls.
	s.Counters.Decisions++
	var pick *partition.Partition
	if s.MeasureLatency {
		t0 := time.Now()
		pick = s.Policy.Pick(s, now)
		lat := time.Since(t0)
		s.Counters.PolicyTime += lat
		s.Counters.PolicySamples++
		if h := s.Counters.PolicyLatency; h != nil { // allocated by armLatency
			h.Add(float64(lat.Nanoseconds()) / 1e3)
		}
	} else {
		pick = s.Policy.Pick(s, now)
	}

	pickIdx := -1
	if pick != nil {
		pickIdx = pick.Index
	}
	if s.sink != nil {
		s.observeDecision(now, pick, pickIdx)
	}
	if pickIdx != s.running {
		s.Counters.Switches++
		s.running = pickIdx
	}
	if pick == nil {
		s.Counters.IdleDecisions++
	}

	// The slice ends at the earliest of: the horizon (until, or any
	// partition's next replenishment or arrival — exact, see evq), the
	// quantum boundary, and — if a partition runs — its budget depletion or
	// current-job completion.
	if q := s.Policy.Quantum(); q > 0 {
		if qe := now.Add(q); qe < horizon {
			horizon = qe
		}
	}
	if bp, ok := s.Policy.(BoundaryPolicy); ok {
		if be := bp.NextBoundary(now); be > now && be < horizon {
			horizon = be
		}
	}
	if pick != nil {
		if be := now.Add(pick.Server.Remaining()); be < horizon {
			horizon = be
		}
		if jr := pick.Local.ShortestRemaining(); jr != vtime.Forever {
			if je := now.Add(jr); je < horizon {
				horizon = je
			}
		}
	}
	if horizon <= now {
		// All events at now were already delivered, so the earliest future
		// event is strictly later; this is a defensive fallback that keeps
		// the simulation moving even if a policy misbehaves. Counted so
		// oracles can flag policies that trigger it.
		s.Counters.MinAdvances++
		horizon = now.Add(vtime.Microsecond)
		if horizon > until {
			horizon = until
		}
	}

	d := horizon.Sub(now)
	if pick != nil {
		// Never execute beyond the remaining budget: a well-behaved policy
		// ensures d <= Remaining via the depletion bound above, but a
		// misbehaving one could pick an inactive partition with pending
		// work, and the defensive minimum-advance must not overdraw it.
		used := pick.Local.Run(now, d.Min(pick.Server.Remaining()))
		pick.Server.Consume(now, used)
		// Consuming budget schedules the replacement replenishment, so the
		// executed partition's next event may have moved; republish its hot
		// state (arena columns, next-event heap, ready bit). For a
		// sporadic server the consumption also queues a future supply chunk,
		// which shifts the partition's supply stream mid-epoch — a
		// discontinuous change the verdict cache must observe. Plain budget
		// draining on the other policies is the time-monotone evolution cached
		// verdicts already account for, so no stamp is needed there.
		if used > 0 && pick.Server.PolicyKind() == server.Sporadic {
			s.bumpStamp(pick.Index)
		}
		s.publishHot(pick.Index, pick.Hot())
		s.Counters.ArenaBytesTouched += arenaStrideBytes + partVisitBytes
		s.perPart[pick.Index] += used
		s.Counters.BusyTime += used
		end := now.Add(used)
		if used == 0 {
			// Defensive: a policy returned a partition with no ready work.
			end = horizon
			s.Counters.IdleTime += d
		}
		if s.TraceFn != nil {
			s.TraceFn(Segment{Start: now, End: end, Partition: pick.Index})
		}
		if s.sink != nil && end > now {
			slicePart := pick.Index
			if used == 0 {
				// Defensive branch above: the slice was actually idle.
				slicePart = -1
			}
			s.sink.Event(telemetry.Event{
				Time: now, Kind: telemetry.KindSlice,
				Partition: slicePart, Dur: end.Sub(now),
			})
		}
		s.now = end
		return
	}
	s.Counters.IdleTime += d
	if s.TraceFn != nil {
		s.TraceFn(Segment{Start: now, End: horizon, Partition: -1})
	}
	if s.sink != nil && horizon > now {
		s.sink.Event(telemetry.Event{
			Time: now, Kind: telemetry.KindSlice,
			Partition: -1, Dur: horizon.Sub(now),
		})
	}
	s.now = horizon
}

// observeDecision emits the telemetry records of one global decision:
// the decision itself, partition-level preemption of the previously running
// job on a switch, and priority-inversion window open/close edges. Called
// only with a sink attached.
func (s *System) observeDecision(now vtime.Time, pick *partition.Partition, pickIdx int) {
	candidates := int64(-1)
	if dd, ok := s.Policy.(DecisionDetailer); ok {
		candidates, _ = dd.DecisionDetail()
	}
	s.sink.Event(telemetry.Event{
		Time: now, Kind: telemetry.KindDecision,
		Partition: pickIdx, Aux: candidates,
	})

	// Partition-level preemption: the previously running partition lost the
	// CPU while one of its jobs was mid-execution.
	if pickIdx != s.running && s.running >= 0 {
		if j := s.Partitions[s.running].Local.TakeInFlight(); j != nil {
			s.sink.Event(telemetry.Event{
				Time: now, Kind: telemetry.KindTaskPreempt,
				Partition: s.running, Task: j.Task.Name, Job: j.Index,
			})
		}
	}

	// Priority inversion: the decision ran a partition (or idled) while a
	// strictly higher-priority partition was runnable. Consecutive inverted
	// decisions form one window.
	// The highest-priority runnable partition decides it: the decision is
	// inverted iff one exists above the pick. First shares the bitset's
	// summary-guided ForEachSet walk with Runnable and FixedPriority.
	upTo := len(s.Partitions)
	if pick != nil {
		upTo = pick.Index
	}
	first := s.ready.First()
	inverted := first >= 0 && first < upTo
	switch {
	case inverted && !s.invOpen:
		s.invOpen, s.invStart = true, now
		s.Counters.InversionWindows++
		s.sink.Event(telemetry.Event{
			Time: now, Kind: telemetry.KindInversionOpen, Partition: pickIdx,
		})
	case !inverted && s.invOpen:
		s.closeInversion(now)
	}
}

func (s *System) closeInversion(now vtime.Time) {
	s.invOpen = false
	d := now.Sub(s.invStart)
	s.Counters.InversionTime += d
	s.sink.Event(telemetry.Event{
		Time: now, Kind: telemetry.KindInversionClose, Partition: -1, Dur: d,
	})
}

// FlushTelemetry closes any open priority-inversion window at the current
// instant and emits its close event. Call it when a run ends before reading
// final inversion statistics; it is idempotent.
func (s *System) FlushTelemetry() {
	if s.sink != nil && s.invOpen {
		s.closeInversion(s.now)
	}
}

// PolicyResetter is the optional extension a global policy implements to
// participate in deterministic system reuse: Reset must restore the policy's
// initial state (counters, caches) while retaining scratch capacity.
// core.Policy implements it; the stateless policies don't need to.
type PolicyResetter interface {
	Reset()
}

// Reset restores the system to its initial state: time zero, full budgets,
// no pending jobs, zeroed counters, and — when the policy implements
// PolicyResetter — a reset policy. Buffers everywhere retain their capacity,
// so a reset system replays a trial without allocating. The RNG is kept
// as-is; reseed System.Rand to rewind it too.
func (s *System) Reset() {
	for _, p := range s.Partitions {
		p.Reset()
	}
	s.now = 0
	s.running = -1
	s.setCounters(Counters{})
	s.invOpen = false
	s.invStart = 0
	s.epoch = 0
	for i := range s.perPart {
		s.perPart[i] = 0
		s.stamps[i] = 0
	}
	s.evq.Reset()
	s.ready.Reset()
	s.initHotArenas()
	if pr, ok := s.Policy.(PolicyResetter); ok {
		pr.Reset()
	}
}

// SetSharding does nothing: the engine steps every system on one goroutine,
// with one event heap and one due-discovery path.
//
// Deprecated: kept only because cmd/benchrec, a separate module, still calls
// it on the dense workload. It goes with the next change to that command.
func (s *System) SetSharding(*shard.Pool, int) {}
