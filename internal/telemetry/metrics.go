package telemetry

import (
	"fmt"
	"io"

	"timedice/internal/stats"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Add adds d (d must be >= 0; negative deltas are ignored).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v += d
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a last-value metric.
type Gauge struct {
	v float64
}

// Set records the current value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the last recorded value.
func (g *Gauge) Value() float64 { return g.v }

// metricKind tags registry entries for deterministic dumps.
type metricKind uint8

const (
	metricCounter metricKind = iota + 1
	metricGauge
	metricHistogram
)

type metricEntry struct {
	name string
	kind metricKind
}

// Registry holds named metrics. Lookups create metrics on first use; a dump
// lists metrics in first-registration order, so the output of a
// deterministic run is byte-stable. The registry is not goroutine-safe: one
// simulated system updates it from a single goroutine.
type Registry struct {
	order      []metricEntry
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*stats.Sketch
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*stats.Sketch),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	r.order = append(r.order, metricEntry{name, metricCounter})
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.order = append(r.order, metricEntry{name, metricGauge})
	return g
}

// Histogram returns the named histogram, creating it on first use. It is a
// streaming quantile sketch: exact up to 1024 samples, within 1% relative
// value error after that, in bounded memory.
func (r *Registry) Histogram(name string) *stats.Sketch {
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h := stats.NewSketch()
	r.histograms[name] = h
	r.order = append(r.order, metricEntry{name, metricHistogram})
	return h
}

// histRow returns the dump fields of one histogram: count, sum, mean, min,
// p25, p50, p75, p90, p99 and max. An empty histogram dumps zeros.
func histRow(h *stats.Sketch) (n int64, sum float64, f [8]float64) {
	n, sum = h.N(), h.Sum()
	if n == 0 {
		return n, sum, f
	}
	qs := h.Quantiles(0.25, 0.5, 0.75, 0.9, 0.99)
	f = [8]float64{sum / float64(n), h.Min(), qs[0], qs[1], qs[2], qs[3], qs[4], h.Max()}
	return n, sum, f
}

// WriteText writes a human-readable dump: one metric per line, in
// registration order.
func (r *Registry) WriteText(w io.Writer) error {
	for _, e := range r.order {
		var err error
		switch e.kind {
		case metricCounter:
			_, err = fmt.Fprintf(w, "counter   %-40s %d\n", e.name, r.counters[e.name].Value())
		case metricGauge:
			_, err = fmt.Fprintf(w, "gauge     %-40s %.6f\n", e.name, r.gauges[e.name].Value())
		case metricHistogram:
			n, _, f := histRow(r.histograms[e.name])
			_, err = fmt.Fprintf(w,
				"histogram %-40s n=%d mean=%.3f min=%.3f p25=%.3f p50=%.3f p75=%.3f p90=%.3f p99=%.3f max=%.3f\n",
				e.name, n, f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes a machine-readable dump with a fixed header, in
// registration order. Fields that do not apply to a metric type are empty.
func (r *Registry) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "type,name,value,count,sum,mean,min,p25,p50,p75,p90,p99,max"); err != nil {
		return err
	}
	for _, e := range r.order {
		var err error
		switch e.kind {
		case metricCounter:
			_, err = fmt.Fprintf(w, "counter,%s,%d,,,,,,,,,,\n", e.name, r.counters[e.name].Value())
		case metricGauge:
			_, err = fmt.Fprintf(w, "gauge,%s,%.6f,,,,,,,,,,\n", e.name, r.gauges[e.name].Value())
		case metricHistogram:
			n, sum, f := histRow(r.histograms[e.name])
			_, err = fmt.Fprintf(w, "histogram,%s,,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
				e.name, n, sum, f[0], f[1], f[2], f[3], f[4], f[5], f[6], f[7])
		}
		if err != nil {
			return err
		}
	}
	return nil
}
