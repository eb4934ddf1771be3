package engine

// Fork: an O(live-state) deep copy of a running System. Where Snapshot/Restore
// serialize state through a byte stream, Fork clones it structurally — same
// contract (call at a step boundary; the copy continues digest-identically),
// no encoding cost, and the parent is never mutated (Fork reads fields
// directly and never calls the mutating accessors like Partition.Hot, whose
// lazy arrival-anchor refresh would perturb the parent).

import (
	"slices"

	"timedice/internal/bitset"
	"timedice/internal/partition"
)

// PolicyForker is the optional extension a global policy implements to
// participate in Fork: ForkPolicy returns an independent policy equivalent to
// the receiver after a Reset — same configuration (quantum, selection mode),
// fresh scratch/cache state, and a cloned RNG position when the policy owns
// one. Because the verdict cache and search-reuse state are exact
// (digest-pinned against an uncached, from-scratch reference policy),
// starting the fork with them empty never changes a schedule.
type PolicyForker interface {
	ForkPolicy() GlobalPolicy
}

// Fork returns an independent deep copy of the system at the current step
// boundary: cloned partitions (each in a record of its own with its server,
// scheduler, task descriptors and pending jobs), a cloned RNG position, the
// State counter rows (Work and Host rows start at zero, see CounterClass),
// and copied index structures sharing no mutable memory with the parent. Running the fork to a horizon is
// digest-identical to running the parent there; the two only diverge through
// injected differences (reseeding the fork's Rand, swapping its Policy).
//
// The policy is forked via PolicyForker when implemented; otherwise it is
// shared, which is only safe for stateless policies (sched.FixedPriority —
// every built-in policy implements PolicyForker, so sharing arises only with
// custom policies). The telemetry sink, TraceFn, and the wall-clock latency
// sketch are not carried over: a fork starts unobserved, and the caller
// attaches its own sink before running.
func (s *System) Fork() *System {
	n := len(s.Partitions)
	parts := make([]*partition.Partition, n)
	for i, p := range s.Partitions {
		parts[i] = p.Clone()
	}
	pol := s.Policy
	if pf, ok := s.Policy.(PolicyForker); ok {
		pol = pf.ForkPolicy()
	}
	f := &System{
		Partitions:     parts,
		Policy:         pol,
		Rand:           s.Rand.Clone(),
		MeasureLatency: s.MeasureLatency,
		Counters:       s.Counters.Only(State),
		now:            s.now,
		running:        s.running,
		perPart:        slices.Clone(s.perPart),
		evq:            s.evq.Clone(),
		ready:          bitset.New(n),
		hotRemaining:   slices.Clone(s.hotRemaining),
		hotDeadline:    slices.Clone(s.hotDeadline),
		hotSupply:      slices.Clone(s.hotSupply),
		hotBudget:      slices.Clone(s.hotBudget),
		hotPeriod:      slices.Clone(s.hotPeriod),
		hotRecip:       slices.Clone(s.hotRecip),
		dueBuf:         make([]int32, 0, n),
		dueMark:        bitset.New(n),
		runnableBuf:    make([]*partition.Partition, 0, n),
		epoch:          s.epoch,
		stamps:         slices.Clone(s.stamps),
		invOpen:        s.invOpen,
		invStart:       s.invStart,
	}
	// Rebuild the ready set from the parent's bits.
	s.ready.ForEachSet(func(i int) bool {
		f.ready.Set(i)
		return true
	})
	f.observeAll()
	return f
}
