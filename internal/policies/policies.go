// Package policies names the global scheduling policies compared throughout
// the evaluation and builds them uniformly for a given partition set.
package policies

import (
	"fmt"

	"timedice/internal/core"
	"timedice/internal/engine"
	"timedice/internal/partition"
	"timedice/internal/sched"
	"timedice/internal/vtime"
)

// Kind selects a global scheduling policy.
type Kind int

const (
	// NoRandom is the default fixed-priority scheduler (the paper's
	// baseline).
	NoRandom Kind = iota + 1
	// TimeDiceU is TimeDice with uniform random selection.
	TimeDiceU
	// TimeDiceW is TimeDice with weighted random selection (the default
	// "TimeDice" of the paper).
	TimeDiceW
	// TDMA is the static-partitioning reference.
	TDMA
)

// String returns the paper's name for the policy.
func (k Kind) String() string {
	switch k {
	case NoRandom:
		return "NoRandom"
	case TimeDiceU:
		return "TimeDiceU"
	case TimeDiceW:
		return "TimeDiceW"
	case TDMA:
		return "TDMA"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Options tune policy construction.
type Options struct {
	// Quantum is MIN_INV_SIZE for the TimeDice policies (default 1 ms).
	Quantum vtime.Duration
}

// Build constructs the policy. parts is needed only by TDMA (slot table).
func Build(k Kind, parts []*partition.Partition, opts Options) (engine.GlobalPolicy, error) {
	q := opts.Quantum
	if q <= 0 {
		q = core.DefaultQuantum
	}
	switch k {
	case NoRandom:
		return sched.FixedPriority{}, nil
	case TimeDiceU:
		return core.NewPolicy(core.WithQuantum(q), core.WithSelection(core.SelectUniform)), nil
	case TimeDiceW:
		return core.NewPolicy(core.WithQuantum(q), core.WithSelection(core.SelectWeighted)), nil
	case TDMA:
		return sched.NewTDMA(parts)
	default:
		return nil, fmt.Errorf("policies: unknown kind %v", k)
	}
}
