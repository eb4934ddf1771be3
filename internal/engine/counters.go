package engine

import "slices"

// CounterClass says what a Counters field is outside the step loop, and so
// what snapshots, Fork, merges, live exposition and the differentials do
// with it. Every integer field's class is declared once, in CounterRows.
type CounterClass uint8

const (
	// State rows are simulation output: deterministic functions of the
	// schedule. Snapshots carry them, Fork copies them, merges sum them,
	// live exposition publishes them, and every differential compares them.
	State CounterClass = iota
	// Work rows tally decision work whose amount depends on verdict-cache
	// warmth. Snapshots do not carry them and they restart at zero after
	// Restore and Fork, whose policy starts with a cold cache. Merges sum
	// them and exposition publishes them; only differentials that run the
	// same cached policy on both sides compare them.
	Work
	// Host rows are wall-clock observations of the host, not simulation
	// output: never carried, copied, merged, published or compared.
	Host
)

// CounterRow declares one integer field of Counters.
type CounterRow struct {
	// Name is the row's key in /statusz and post-mortem bundles, and
	// exposed as the timedice_engine_<Name>_total family on /metrics.
	Name  string
	Help  string
	Class CounterClass
	// Field addresses the row's field; Duration fields convert to *int64.
	Field func(*Counters) *int64
}

// CounterRows declares every integer field of Counters exactly once
// (TestCounterRowsCoverFields fails otherwise). The State rows are in
// snapshot wire order: adding or moving one changes the snapshot layout and
// needs a SnapshotVersion bump.
var CounterRows = [...]CounterRow{
	{"decisions", "global scheduling decisions made", State, func(c *Counters) *int64 { return &c.Decisions }},
	{"switches", "decisions whose outcome differed from the previous one", State, func(c *Counters) *int64 { return &c.Switches }},
	{"idle_decisions", "decisions that chose to idle", State, func(c *Counters) *int64 { return &c.IdleDecisions }},
	{"busy_us", "simulated microseconds spent executing partitions", State, func(c *Counters) *int64 { return (*int64)(&c.BusyTime) }},
	{"idle_us", "simulated microseconds spent idle", State, func(c *Counters) *int64 { return (*int64)(&c.IdleTime) }},
	{"deadline_misses", "jobs that completed after their absolute deadline", State, func(c *Counters) *int64 { return &c.DeadlineMisses }},
	{"inversion_windows", "priority-inversion windows (telemetry sink attached)", State, func(c *Counters) *int64 { return &c.InversionWindows }},
	{"inversion_us", "simulated microseconds inside priority-inversion windows (telemetry sink attached)", State, func(c *Counters) *int64 { return (*int64)(&c.InversionTime) }},
	{"min_advances", "forced 1us minimum-advance steps (misbehaving-policy tripwire)", State, func(c *Counters) *int64 { return &c.MinAdvances }},
	{"arena_bytes", "hot-state bytes touched by the step loop (deterministic cache-traffic proxy)", State, func(c *Counters) *int64 { return &c.ArenaBytesTouched }},
	{"fixpoint_iters", "Algorithm-3 busy-interval fixpoint iterations run (deterministic decision-cost proxy)", Work, func(c *Counters) *int64 { return &c.FixpointIters }},
	{"interference_terms", "Algorithm-3 interference terms evaluated (scan-vs-indexed gap = decision-kernel savings)", Work, func(c *Counters) *int64 { return &c.InterferenceTerms }},
	{"policy_ns", "wall-clock nanoseconds inside Pick (MeasureLatency)", Host, func(c *Counters) *int64 { return (*int64)(&c.PolicyTime) }},
	{"policy_samples", "timed Pick calls (MeasureLatency)", Host, func(c *Counters) *int64 { return &c.PolicySamples }},
	{"shard_merge_ns", "always zero (deprecated)", Host, func(c *Counters) *int64 { return (*int64)(&c.ShardMergeTime) }},
}

// Only returns the rows of c whose class is among classes; every other
// field, PolicyLatency included, is zero.
func (c *Counters) Only(classes ...CounterClass) Counters {
	var out Counters
	for _, row := range CounterRows {
		if slices.Contains(classes, row.Class) {
			*row.Field(&out) = *row.Field(c)
		}
	}
	return out
}

// Merge adds o's State and Work rows into c.
func (c *Counters) Merge(o *Counters) {
	for _, row := range CounterRows {
		if row.Class != Host {
			*row.Field(c) += *row.Field(o)
		}
	}
}

// Values returns c's State and Work rows keyed by row name, the form
// /statusz and post-mortem bundles publish.
func (c *Counters) Values() map[string]int64 {
	m := make(map[string]int64, len(CounterRows))
	for _, row := range CounterRows {
		if row.Class != Host {
			m[row.Name] = *row.Field(c)
		}
	}
	return m
}

// setCounters installs c, keeping the latency sketch (emptied): dropping it
// would force the next measured Run to reallocate, breaking the
// allocation-free reuse contract. An emptied sketch is indistinguishable
// from a fresh one.
func (s *System) setCounters(c Counters) {
	if h := s.Counters.PolicyLatency; h != nil {
		h.Reset()
		c.PolicyLatency = h
	}
	s.Counters = c
}
