package experiments

import (
	"io"

	"timedice/internal/core"
	"timedice/internal/engine"
	"timedice/internal/experiments/runner"
	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

// OverheadRow aggregates the scheduling-overhead metrics for one system size
// and policy: Table IV (per-decision latency percentiles), Table V
// (decisions and switches per second of schedule), and Fig. 17 (total policy
// time per second of schedule).
type OverheadRow struct {
	Partitions int
	Policy     policies.Kind

	// Latency percentiles of a single scheduling decision, in microseconds
	// of wall-clock time of this Go implementation (Table IV).
	P25, P50, P75, P99, Max float64

	DecisionsPerSec float64
	SwitchesPerSec  float64
	// PolicyMicrosPerSec is the wall-clock µs spent inside the policy per
	// simulated second (the Fig. 17 series).
	PolicyMicrosPerSec float64
	// SchedTestsPerDecision is the mean number of Algorithm-3 invocations
	// per decision (bounded by |Π|).
	SchedTestsPerDecision float64
}

// OverheadResult holds the grid over |Π| ∈ {5, 10, 20} × {NoRandom,
// TimeDiceW}.
type OverheadRowKey struct {
	Partitions int
	Policy     policies.Kind
}

// OverheadResult indexes rows by (partitions, policy).
type OverheadResult struct {
	Rows []OverheadRow
}

// Row returns the row for (n, kind).
func (r *OverheadResult) Row(n int, kind policies.Kind) (OverheadRow, bool) {
	for _, row := range r.Rows {
		if row.Partitions == n && row.Policy == kind {
			return row, true
		}
	}
	return OverheadRow{}, false
}

// Overhead measures scheduling overhead on the Table I system duplicated to
// 5, 10, and 20 partitions (utilization held constant), under NoRandom and
// TimeDice, reproducing Tables IV and V and Fig. 17.
func Overhead(sc Scale, w io.Writer) (*OverheadResult, error) {
	sc = sc.withDefaults()
	dur := vtime.Duration(sc.SimSeconds) * vtime.Second
	type trial struct {
		mult int
		kind policies.Kind
	}
	var trials []trial
	for _, mult := range []int{1, 2, 4} {
		for _, kind := range []policies.Kind{policies.NoRandom, policies.TimeDiceW} {
			trials = append(trials, trial{mult: mult, kind: kind})
		}
	}
	// Note: the latency percentiles are wall-clock measurements of this Go
	// implementation, so running trials concurrently adds scheduling noise to
	// Table IV. The rates (Table V) and the simulated schedule itself are
	// deterministic regardless.
	rows, err := runner.Map(sc.Parallel, trials, func(_ int, tr trial) (OverheadRow, error) {
		spec := workload.Scale(workload.TableIBase(), tr.mult)
		return overheadRun(spec, tr.kind, dur, sc.Seed)
	})
	if err != nil {
		return nil, err
	}
	res := &OverheadResult{Rows: rows}

	fprintf(w, "Table IV: end-to-end latency of one scheduling decision (us, this Go implementation)\n")
	fprintf(w, "%-6s %-10s %8s %8s %8s %8s %8s\n", "|Pi|", "policy", "25%", "50%", "75%", "99%", "100%")
	for _, row := range res.Rows {
		if row.Policy != policies.TimeDiceW {
			continue
		}
		fprintf(w, "%-6d %-10s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
			row.Partitions, row.Policy, row.P25, row.P50, row.P75, row.P99, row.Max)
	}
	fprintf(w, "\nTable V: scheduling decisions and partition switches per second\n")
	fprintf(w, "%-6s %-10s %14s %14s %12s\n", "|Pi|", "policy", "decisions/s", "switches/s", "tests/dec")
	for _, row := range res.Rows {
		fprintf(w, "%-6d %-10s %14.2f %14.2f %12.2f\n",
			row.Partitions, row.Policy, row.DecisionsPerSec, row.SwitchesPerSec, row.SchedTestsPerDecision)
	}
	fprintf(w, "\nFig 17: policy time per second of schedule (us/s)\n")
	for _, row := range res.Rows {
		if row.Policy != policies.TimeDiceW {
			continue
		}
		fprintf(w, "|Pi|=%-3d %10.1f us/s (%.4f%%)\n",
			row.Partitions, row.PolicyMicrosPerSec, row.PolicyMicrosPerSec/1e4)
	}
	return res, nil
}

func overheadRun(spec model.SystemSpec, kind policies.Kind, dur vtime.Duration, seed uint64) (OverheadRow, error) {
	built, err := spec.Build()
	if err != nil {
		return OverheadRow{}, err
	}
	pol, err := policies.Build(kind, built.Partitions, policies.Options{})
	if err != nil {
		return OverheadRow{}, err
	}
	sys, err := engine.New(built.Partitions, pol, rng.New(seed))
	if err != nil {
		return OverheadRow{}, err
	}
	sys.MeasureLatency = true
	sys.Run(vtime.Time(dur))

	c := sys.Counters
	secs := dur.Seconds()
	row := OverheadRow{
		Partitions:         len(spec.Partitions),
		Policy:             kind,
		DecisionsPerSec:    float64(c.Decisions) / secs,
		SwitchesPerSec:     float64(c.Switches) / secs,
		PolicyMicrosPerSec: float64(c.PolicyTime.Microseconds()) / secs,
	}
	if h := c.PolicyLatency; h != nil && h.N() > 0 {
		// Streaming sketch (bounded memory): exact quantiles up to 1024
		// decisions, within 1% relative error beyond.
		qs := h.Quantiles(0.25, 0.5, 0.75, 0.99)
		row.P25, row.P50, row.P75, row.P99, row.Max = qs[0], qs[1], qs[2], qs[3], h.Max()
	}
	if td, ok := pol.(*core.Policy); ok {
		st := td.Stats()
		if st.Decisions > 0 {
			row.SchedTestsPerDecision = float64(st.SchedTests) / float64(st.Decisions)
		}
	}
	return row, nil
}
