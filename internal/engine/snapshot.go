package engine

// Versioned binary state serialization: Snapshot captures the complete
// dynamic state of a System at a step boundary, Restore replaces a
// same-configuration System's state with a previously captured one, and the
// two compose into the digest-identity contract the snapshot test battery
// pins: snapshot → restore → run-to-horizon is byte-identical (event stream,
// counters) to straight-line execution.
//
// What is captured vs recomputed:
//
//   - Captured verbatim: the clock, the last pick, the epoch/stamps of the
//     verdict cache, the State counter rows, the inversion-window edge
//     state, the RNG position, per-partition consumed time, the next-event
//     heap keys, and the full server/local-scheduler state (budgets,
//     replenishment chunk queues, pending job rings, arrival anchors, the
//     in-flight job). The heap keys in particular must never be recomputed:
//     their values are defined by the engine's lazy refresh discipline
//     (arrival anchors initialize on first delivery), and recomputing them
//     would deliver differently than the straight line.
//   - Recomputed on restore: the SoA hot arenas and the ready bitset, which
//     are pure functions of the restored server/scheduler state at a step
//     boundary (publishHot invariant), and the IndexMin heap layout, which is
//     rebuilt from the restored keys (heap shape among equal keys is
//     unobservable: due-set delivery is sorted and MinKey is a minimum).
//   - Flushed: the policy's decision state (verdict cache, search reuse)
//     via PolicyResetter. Both are exact — pinned digest-identical to an
//     uncached, from-scratch reference policy — so flushing them never
//     changes a schedule.
//
// The wire format is a flat little-endian u64 stream: an 8-byte magic,
// SnapshotVersion, a configuration fingerprint (partition priorities, server
// parameters, task parameters and names, policy name and quantum), the
// partition count, then the body. Decoding is hard-capped (total size and
// per-queue lengths bounded by the remaining input) and fully validated
// against the target system's static configuration before anything is
// mutated: on any error the System is unchanged. Restore accepts only
// canonical encodings — every accepted byte stream re-encodes to itself —
// which FuzzSnapshotBytes pins.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"timedice/internal/eventq"
	"timedice/internal/server"
	"timedice/internal/task"
	"timedice/internal/vtime"
)

// SnapshotVersion is the wire-format version Snapshot writes and Restore
// requires. Bump it on any change to the serialized layout or semantics; the
// golden snapshot test (testdata/golden-v<N>.snapshot) fails loudly until the
// version and its golden artifact move together.
const SnapshotVersion = 1

var snapshotMagic = [8]byte{'T', 'D', 'I', 'C', 'E', 's', 'n', 'p'}

// maxSnapshotBytes caps the input Restore will read: well beyond any live
// state the simulator produces (a P=16384 system with deep backlogs is a few
// MiB), but small enough that hostile input cannot balloon memory.
const maxSnapshotBytes = 64 << 20

// Snapshot writes the system's complete dynamic state to w in the versioned
// binary format. Call it at a step boundary (between Step/Run calls); the
// state written is exactly what Restore needs to continue the run
// digest-identically. The system is not mutated.
func (s *System) Snapshot(w io.Writer) error {
	_, err := w.Write(s.appendSnapshot(nil))
	return err
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func appendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func boolU64(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

func (s *System) appendSnapshot(b []byte) []byte {
	b = append(b, snapshotMagic[:]...)
	b = appendU64(b, SnapshotVersion)
	b = appendU64(b, s.configFingerprint())
	b = appendU64(b, uint64(len(s.Partitions)))
	b = appendI64(b, int64(s.now))
	b = appendI64(b, int64(s.running))
	b = appendU64(b, s.epoch)
	for _, row := range CounterRows {
		if row.Class == State {
			b = appendI64(b, *row.Field(&s.Counters))
		}
	}
	b = appendU64(b, boolU64(s.invOpen))
	b = appendI64(b, int64(s.invStart))
	st := s.Rand.State()
	for _, v := range st {
		b = appendU64(b, v)
	}
	var replBuf []eventq.Entry[vtime.Duration]
	for i, p := range s.Partitions {
		b = appendI64(b, int64(s.perPart[i]))
		b = appendI64(b, int64(s.evq.Key(i)))
		b = appendU64(b, s.stamps[i])
		srv := p.Server.SaveState(replBuf[:0])
		replBuf = srv.Repl
		b = appendI64(b, int64(srv.Remaining))
		b = appendI64(b, int64(srv.LastReplenish))
		repl := srv.Repl
		if snapshotDropsSporadicSupply {
			repl = nil // mutation hook: silently lose the sporadic chunk supply
		}
		b = appendU64(b, uint64(len(repl)))
		for _, e := range repl {
			b = appendI64(b, int64(e.At))
			b = appendI64(b, int64(e.Val))
		}
		sched := p.Local.SaveState()
		b = appendI64(b, sched.Completed)
		b = appendI64(b, sched.InFlightTask)
		b = appendI64(b, sched.InFlightJob)
		for _, ts := range sched.Tasks {
			b = appendU64(b, boolU64(ts.Started))
			b = appendI64(b, int64(ts.NextArrival))
			b = appendI64(b, ts.NextIndex)
			b = appendU64(b, uint64(len(ts.Pending)))
			for _, j := range ts.Pending {
				b = appendI64(b, j.Index)
				b = appendI64(b, int64(j.Arrival))
				b = appendI64(b, int64(j.Demand))
				b = appendI64(b, int64(j.Remaining))
			}
		}
	}
	return b
}

// configFingerprint digests the static configuration a snapshot is only
// valid against: partition count, priorities, names, server parameters,
// task parameters and names, and the policy's name and quantum. FNV-1a,
// folded bytewise like the event digest.
func (s *System) configFingerprint() uint64 {
	const offset, prime = uint64(0xcbf29ce484222325), uint64(0x100000001b3)
	h := offset
	foldU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime
			v >>= 8
		}
	}
	foldStr := func(v string) {
		foldU64(uint64(len(v)))
		for i := 0; i < len(v); i++ {
			h = (h ^ uint64(v[i])) * prime
		}
	}
	foldU64(uint64(len(s.Partitions)))
	for _, p := range s.Partitions {
		foldStr(p.Name)
		foldU64(uint64(int64(p.Priority)))
		foldU64(uint64(p.Server.Budget()))
		foldU64(uint64(p.Server.Period()))
		foldU64(uint64(p.Server.PolicyKind()))
		foldU64(uint64(p.Local.NumTasks()))
		for j := range p.Local.NumTasks() {
			t := p.Local.Task(j)
			foldStr(t.Name)
			foldU64(uint64(t.Period))
			foldU64(uint64(t.WCET))
			foldU64(uint64(t.Deadline))
			foldU64(uint64(t.Offset))
		}
	}
	foldStr(s.Policy.Name())
	foldU64(uint64(s.Policy.Quantum()))
	return h
}

// snapReader is a latching-error cursor over the decoded byte stream.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *snapReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.err = fmt.Errorf("engine: snapshot truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *snapReader) i64() int64 { return int64(r.u64()) }

func (r *snapReader) dur() vtime.Duration { return vtime.Duration(r.i64()) }

func (r *snapReader) time() vtime.Time { return vtime.Time(r.i64()) }

// count reads a length prefix and bounds it by the bytes actually remaining
// (each item consumes at least itemBytes), so a hostile length cannot force
// an over-allocation.
func (r *snapReader) count(itemBytes int) int {
	v := r.u64()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)-r.off)/uint64(itemBytes) {
		r.fail("engine: snapshot count %d exceeds remaining input", v)
		return 0
	}
	return int(v)
}

func (r *snapReader) boolean() bool {
	switch r.u64() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("engine: snapshot boolean field is neither 0 nor 1")
		return false
	}
}

// snapState is the fully decoded, not-yet-applied snapshot body.
type snapState struct {
	now      vtime.Time
	running  int
	epoch    uint64
	counters Counters // State rows only
	invOpen  bool
	invStart vtime.Time
	rand     [4]uint64
	parts    []snapPart
}

type snapPart struct {
	perPart   vtime.Duration
	nextEvent vtime.Time
	stamp     uint64
	srv       server.State
	sched     task.SchedulerState
}

// Restore replaces the system's dynamic state with a snapshot previously
// written by Snapshot on a system with the identical static configuration
// (same partitions, servers, task sets, policy kind and quantum — enforced
// via the embedded fingerprint). The input is size-capped, fully decoded,
// and validated before anything is touched: on error the System is
// unchanged. On success the policy's decision state is flushed
// (PolicyResetter), the hot arenas, ready bitset, and event heap are rebuilt
// from the restored state, and continuing the run is digest-identical to the
// run the snapshot was taken from. The Work and Host counter rows restart at
// zero (see CounterClass). The telemetry sink, TraceFn, and stepping mode
// are not part of the snapshot; configure them as usual around Restore.
func (s *System) Restore(r io.Reader) error {
	data, err := io.ReadAll(io.LimitReader(r, maxSnapshotBytes+1))
	if err != nil {
		return fmt.Errorf("engine: snapshot read: %w", err)
	}
	if len(data) > maxSnapshotBytes {
		return fmt.Errorf("engine: snapshot exceeds the %d-byte cap", maxSnapshotBytes)
	}
	st, err := s.decodeSnapshot(data)
	if err != nil {
		return err
	}
	return s.applySnapshot(st)
}

var errSnapshotMagic = errors.New("engine: not a snapshot (bad magic)")

// decodeSnapshot parses and validates data against s's static configuration
// without mutating s.
func (s *System) decodeSnapshot(data []byte) (*snapState, error) {
	r := &snapReader{b: data}
	if len(data) < len(snapshotMagic) || string(data[:len(snapshotMagic)]) != string(snapshotMagic[:]) {
		return nil, errSnapshotMagic
	}
	r.off = len(snapshotMagic)
	if v := r.u64(); r.err == nil && v != SnapshotVersion {
		return nil, fmt.Errorf("engine: snapshot version %d, this build reads %d", v, SnapshotVersion)
	}
	if fp := r.u64(); r.err == nil && fp != s.configFingerprint() {
		return nil, fmt.Errorf("engine: snapshot configuration fingerprint %#016x does not match this system (%#016x)",
			fp, s.configFingerprint())
	}
	if p := r.u64(); r.err == nil && p != uint64(len(s.Partitions)) {
		return nil, fmt.Errorf("engine: snapshot has %d partitions, system has %d", p, len(s.Partitions))
	}
	st := &snapState{}
	st.now = r.time()
	running := r.i64()
	st.epoch = r.u64()
	for _, row := range CounterRows {
		if row.Class == State {
			*row.Field(&st.counters) = r.i64()
		}
	}
	st.invOpen = r.boolean()
	st.invStart = r.time()
	for i := range st.rand {
		st.rand[i] = r.u64()
	}
	if r.err != nil {
		return nil, r.err
	}
	if st.now < 0 || st.now >= vtime.Infinity {
		return nil, fmt.Errorf("engine: snapshot clock %d out of range", int64(st.now))
	}
	if running < -1 || running >= int64(len(s.Partitions)) {
		return nil, fmt.Errorf("engine: snapshot running index %d out of range", running)
	}
	st.running = int(running)
	for _, row := range CounterRows {
		if v := *row.Field(&st.counters); v < 0 {
			return nil, fmt.Errorf("engine: snapshot counter %s is negative (%d)", row.Name, v)
		}
	}
	if st.invStart < 0 || st.invStart > st.now {
		return nil, fmt.Errorf("engine: snapshot inversion start %v outside [0, now]", st.invStart)
	}
	if st.rand[0]|st.rand[1]|st.rand[2]|st.rand[3] == 0 {
		return nil, errors.New("engine: snapshot rng state is all-zero")
	}
	var perPartSum vtime.Duration
	st.parts = make([]snapPart, len(s.Partitions))
	for i, p := range s.Partitions {
		sp := &st.parts[i]
		sp.perPart = r.dur()
		sp.nextEvent = r.time()
		sp.stamp = r.u64()
		sp.srv.Remaining = r.dur()
		sp.srv.LastReplenish = r.time()
		nRepl := r.count(16)
		for k := 0; k < nRepl; k++ {
			sp.srv.Repl = append(sp.srv.Repl, eventq.Entry[vtime.Duration]{At: r.time(), Val: r.dur()})
		}
		sp.sched.Completed = r.i64()
		sp.sched.InFlightTask = r.i64()
		sp.sched.InFlightJob = r.i64()
		nTasks := p.Local.NumTasks()
		sp.sched.Tasks = make([]task.TaskState, nTasks)
		for t := 0; t < nTasks; t++ {
			ts := &sp.sched.Tasks[t]
			ts.Started = r.boolean()
			ts.NextArrival = r.time()
			ts.NextIndex = r.i64()
			nPend := r.count(32)
			for k := 0; k < nPend; k++ {
				ts.Pending = append(ts.Pending, task.JobState{
					Index: r.i64(), Arrival: r.time(), Demand: r.dur(), Remaining: r.dur(),
				})
			}
		}
		if r.err != nil {
			return nil, r.err
		}
		if sp.perPart < 0 {
			return nil, fmt.Errorf("engine: snapshot partition %d has negative consumed time", i)
		}
		perPartSum += sp.perPart
		if sp.nextEvent < 0 {
			return nil, fmt.Errorf("engine: snapshot partition %d has negative next-event time", i)
		}
		if sp.stamp > st.epoch {
			return nil, fmt.Errorf("engine: snapshot partition %d stamp %d exceeds epoch %d", i, sp.stamp, st.epoch)
		}
		if err := p.Server.CheckState(sp.srv); err != nil {
			return nil, fmt.Errorf("engine: snapshot partition %d: %w", i, err)
		}
		if err := p.Local.CheckState(sp.sched); err != nil {
			return nil, fmt.Errorf("engine: snapshot partition %d: %w", i, err)
		}
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("engine: %d trailing bytes after snapshot body", len(r.b)-r.off)
	}
	// Cross-field invariants the engine maintains: per-partition consumed
	// time sums to BusyTime, and busy + idle tile the clock exactly.
	if perPartSum != st.counters.BusyTime {
		return nil, fmt.Errorf("engine: snapshot per-partition time sums to %v, busy counter is %v",
			perPartSum, st.counters.BusyTime)
	}
	if st.counters.BusyTime+st.counters.IdleTime != vtime.Duration(st.now) {
		return nil, fmt.Errorf("engine: snapshot busy+idle (%v) does not tile the clock (%v)",
			st.counters.BusyTime+st.counters.IdleTime, vtime.Duration(st.now))
	}
	return st, nil
}

// applySnapshot installs a decoded-and-validated snapshot. Validation makes
// the Load* calls infallible here, so the unchanged-on-error contract holds.
func (s *System) applySnapshot(st *snapState) error {
	for i, p := range s.Partitions {
		// Re-validated inside Load*, cheaply; errors are unreachable after
		// decodeSnapshot but propagated for defense.
		if err := p.Server.LoadState(st.parts[i].srv); err != nil {
			return err
		}
		if err := p.Local.LoadState(st.parts[i].sched); err != nil {
			return err
		}
	}
	if err := s.Rand.SetState(st.rand); err != nil {
		return err
	}
	s.now = st.now
	s.running = st.running
	s.epoch = st.epoch
	s.setCounters(st.counters)
	s.invOpen = st.invOpen
	s.invStart = st.invStart
	s.evq.Reset()
	s.ready.Reset()
	for i, p := range s.Partitions {
		s.perPart[i] = st.parts[i].perPart
		s.stamps[i] = st.parts[i].stamp
		s.evq.Update(i, st.parts[i].nextEvent)
		// The arenas and the ready bit are pure functions of the restored
		// server/scheduler state at a step boundary; recompute rather than
		// serialize (the publishHot invariant keeps them exact either way).
		s.hotRemaining[i] = p.Server.Remaining()
		s.hotDeadline[i] = p.Server.Deadline()
		s.hotSupply[i] = p.Server.NextReplenish()
		if p.Runnable() {
			s.ready.Set(i)
		}
	}
	if pr, ok := s.Policy.(PolicyResetter); ok {
		pr.Reset()
	}
	return nil
}
