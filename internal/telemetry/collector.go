package telemetry

import (
	"fmt"

	"timedice/internal/vtime"
)

// Collector is a Sink that aggregates the event stream into a metrics
// Registry — the bridge between the structured trace and the numbers the
// evaluation reports. It maintains, per run:
//
//	decisions.total / decisions.idle      counters
//	switches.total                        counter (decision outcome changed)
//	inversion.windows                     counter
//	inversion.len_us                      histogram of window lengths
//	busy_us.total / idle_us.total         counters (µs)
//	busy_us.<part> / util.<part>          per-partition busy time and
//	                                      budget-utilization gauge
//	arrivals.<part> / completions.<part>  counters
//	deadline_miss.total / .<part>         counters
//	response_us.<part>                    per-partition response-time
//	                                      histograms (µs)
//	budget.depletions.<part>              counter (exhausted or discarded)
//	budget.replenish_us.<part>            counter of replenished µs
//
// Partition labels use the names given to NewCollector, falling back to
// "p<i>" for indices outside the name list.
type Collector struct {
	reg   *Registry
	names []string

	lastPick int
	started  bool
	busy     []vtime.Duration
}

// NewCollector builds a collector labelling partitions with names (in system
// priority order). A nil registry allocates a fresh one.
func NewCollector(reg *Registry, names []string) *Collector {
	if reg == nil {
		reg = NewRegistry()
	}
	c := &Collector{reg: reg, names: names, lastPick: -1, busy: make([]vtime.Duration, len(names))}
	// Pre-register the run-wide metrics so dumps have a stable layout even
	// for runs in which some kinds never occur.
	reg.Counter("decisions.total")
	reg.Counter("decisions.idle")
	reg.Counter("switches.total")
	reg.Counter("inversion.windows")
	reg.Histogram("inversion.len_us")
	reg.Counter("busy_us.total")
	reg.Counter("idle_us.total")
	reg.Counter("deadline_miss.total")
	for i := range names {
		reg.Counter("arrivals." + c.label(i))
		reg.Counter("completions." + c.label(i))
		reg.Counter("deadline_miss." + c.label(i))
		reg.Histogram("response_us." + c.label(i))
		reg.Counter("busy_us." + c.label(i))
		reg.Gauge("util." + c.label(i))
		reg.Counter("budget.depletions." + c.label(i))
		reg.Counter("budget.replenish_us." + c.label(i))
	}
	return c
}

// Registry returns the backing registry.
func (c *Collector) Registry() *Registry { return c.reg }

func (c *Collector) label(part int) string {
	if part >= 0 && part < len(c.names) {
		return c.names[part]
	}
	return fmt.Sprintf("p%d", part)
}

// Event implements Sink.
func (c *Collector) Event(e Event) {
	switch e.Kind {
	case KindDecision:
		c.reg.Counter("decisions.total").Inc()
		if e.Partition < 0 {
			c.reg.Counter("decisions.idle").Inc()
		}
		if !c.started || e.Partition != c.lastPick {
			c.reg.Counter("switches.total").Inc()
		}
		c.started, c.lastPick = true, e.Partition
	case KindSlice:
		if e.Partition < 0 {
			c.reg.Counter("idle_us.total").Add(int64(e.Dur))
			return
		}
		c.reg.Counter("busy_us.total").Add(int64(e.Dur))
		c.reg.Counter("busy_us." + c.label(e.Partition)).Add(int64(e.Dur))
		for int(e.Partition) >= len(c.busy) {
			c.busy = append(c.busy, 0)
		}
		c.busy[e.Partition] += e.Dur
		if end := e.Time.Add(e.Dur); end > 0 {
			c.reg.Gauge("util." + c.label(e.Partition)).
				Set(float64(c.busy[e.Partition]) / float64(end))
		}
	case KindTaskArrival:
		c.reg.Counter("arrivals." + c.label(e.Partition)).Inc()
	case KindTaskComplete:
		c.reg.Counter("completions." + c.label(e.Partition)).Inc()
		c.reg.Histogram("response_us." + c.label(e.Partition)).Add(float64(e.Dur))
	case KindDeadlineMiss:
		c.reg.Counter("deadline_miss.total").Inc()
		c.reg.Counter("deadline_miss." + c.label(e.Partition)).Inc()
	case KindInversionOpen:
		c.reg.Counter("inversion.windows").Inc()
	case KindInversionClose:
		c.reg.Histogram("inversion.len_us").Add(float64(e.Dur))
	case KindBudgetDeplete:
		c.reg.Counter("budget.depletions." + c.label(e.Partition)).Inc()
	case KindBudgetReplenish:
		c.reg.Counter("budget.replenish_us." + c.label(e.Partition)).Add(int64(e.Dur))
	}
}
