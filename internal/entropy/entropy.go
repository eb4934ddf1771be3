// Package entropy quantifies the "temporal locality" the paper's
// randomization attacks: how predictable a partition schedule is. Two
// complementary metrics are provided.
//
// Slot entropy: divide the timeline into quanta and, for each offset within
// a partition-set hyperperiod, build the empirical distribution of which
// partition occupied the slot across hyperperiod repetitions; the mean
// Shannon entropy over offsets is 0 for a fully deterministic schedule
// (NoRandom's steady state) and grows with randomization — the quantity
// Fig. 6 shows visually.
//
// Exhaustion spread: for each partition, the standard deviation of the
// within-period offset at which it exhausts its budget. Theorem 1 argues
// weighted selection spreads budget consumption across the period, so
// TimeDiceW should show a larger spread than uniform selection in the
// lightly loaded regime.
package entropy

import (
	"math"
	"slices"

	"timedice/internal/engine"
	"timedice/internal/infotheory"
	"timedice/internal/model"
	"timedice/internal/stats"
	"timedice/internal/vtime"
)

// SlotObserver accumulates, per hyperperiod offset, the counts of which
// partition (or idle) occupied each quantum.
type SlotObserver struct {
	hyper   vtime.Duration
	quantum vtime.Duration
	slots   int
	// counts[slot][partition+1] — index 0 is idle.
	counts [][]int64
	n      int
}

// NewSlotObserver builds an observer for a system with the given hyperperiod
// (use Hyperperiod(spec)) and quantum resolution.
func NewSlotObserver(hyper, quantum vtime.Duration, partitions int) *SlotObserver {
	slots := int(vtime.CeilDiv(hyper, quantum))
	counts := make([][]int64, slots)
	for i := range counts {
		counts[i] = make([]int64, partitions+1)
	}
	return &SlotObserver{hyper: hyper, quantum: quantum, slots: slots, counts: counts, n: partitions}
}

// Hook returns the engine trace hook that feeds the observer. A slot is
// attributed to the partition that occupied the majority of it; attribution
// is done incrementally per segment piece, which is exact when segments
// align to quantum boundaries (they do under quantum-driven policies).
func (o *SlotObserver) Hook() func(engine.Segment) {
	return func(seg engine.Segment) {
		for t := seg.Start; t < seg.End; {
			slotIdx := int((vtime.Duration(t) % o.hyper) / o.quantum)
			slotEnd := t.Add(o.quantum - vtime.Duration(t)%vtime.Duration(o.quantum))
			chunk := seg.End.Min(slotEnd).Sub(t)
			// Weight by occupancy: add the chunk's microseconds.
			o.counts[slotIdx][seg.Partition+1] += int64(chunk)
			t = t.Add(chunk)
		}
	}
}

// MeanEntropy returns the average Shannon entropy (bits) of the per-slot
// occupancy distributions. 0 = fully deterministic schedule.
func (o *SlotObserver) MeanEntropy() float64 {
	var sum float64
	slots := 0
	for _, c := range o.counts {
		var total int64
		for _, v := range c {
			total += v
		}
		if total == 0 {
			continue
		}
		w := make([]float64, len(c))
		for i, v := range c {
			w[i] = float64(v)
		}
		sum += infotheory.Entropy(w)
		slots++
	}
	if slots == 0 {
		return 0
	}
	return sum / float64(slots)
}

// MaxEntropy returns the upper bound log2(partitions+1) for normalization.
func (o *SlotObserver) MaxEntropy() float64 {
	return math.Log2(float64(o.n + 1))
}

// Hyperperiod returns the LCM of the partitions' replenishment periods,
// capped at cap (0 = no cap) to keep observer memory bounded for
// pathological period sets.
func Hyperperiod(spec model.SystemSpec, cap vtime.Duration) vtime.Duration {
	h := vtime.Duration(1)
	for _, p := range spec.Partitions {
		h = lcm(h, p.Period)
		if cap > 0 && h > cap {
			return cap
		}
	}
	return h
}

func gcd(a, b vtime.Duration) vtime.Duration {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b vtime.Duration) vtime.Duration {
	return a / gcd(a, b) * b
}

// ExhaustionObserver records, per partition, the within-period offset at
// which the partition's budget ran out (its last execution moment in each
// period where it consumed its full budget).
type ExhaustionObserver struct {
	spec     model.SystemSpec
	lastEnd  []map[int64]vtime.Duration // partition → period index → last execution end offset
	consumed []map[int64]vtime.Duration
}

// NewExhaustionObserver builds an observer for spec.
func NewExhaustionObserver(spec model.SystemSpec) *ExhaustionObserver {
	o := &ExhaustionObserver{spec: spec}
	o.lastEnd = make([]map[int64]vtime.Duration, len(spec.Partitions))
	o.consumed = make([]map[int64]vtime.Duration, len(spec.Partitions))
	for i := range o.lastEnd {
		o.lastEnd[i] = make(map[int64]vtime.Duration)
		o.consumed[i] = make(map[int64]vtime.Duration)
	}
	return o
}

// Hook returns the engine trace hook.
func (o *ExhaustionObserver) Hook() func(engine.Segment) {
	return func(seg engine.Segment) {
		if seg.Partition < 0 {
			return
		}
		T := o.spec.Partitions[seg.Partition].Period
		for t := seg.Start; t < seg.End; {
			k := int64(t) / int64(T)
			winEnd := vtime.Time((k + 1) * int64(T))
			chunk := seg.End.Min(winEnd).Sub(t)
			o.consumed[seg.Partition][k] += chunk
			endOffset := vtime.Duration(seg.End.Min(winEnd)) - vtime.Duration(k)*T
			if endOffset > o.lastEnd[seg.Partition][k] {
				o.lastEnd[seg.Partition][k] = endOffset
			}
			t = t.Add(chunk)
		}
	}
}

// Spread returns, for partition i, summary statistics (in milliseconds) of
// the budget-exhaustion offsets over the periods in which the partition
// consumed its full budget. A larger Std means consumption finishing at less
// predictable points — lower temporal locality. Samples are added in period
// order, so the float sums are the same on every run.
func (o *ExhaustionObserver) Spread(i int) stats.Summary {
	B := o.spec.Partitions[i].Budget
	var full []int64
	for k, used := range o.consumed[i] {
		if used >= B {
			full = append(full, k)
		}
	}
	slices.Sort(full)
	var s stats.Summary
	for _, k := range full {
		s.Add(o.lastEnd[i][k].Milliseconds())
	}
	return s
}
