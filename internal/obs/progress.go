package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"timedice/internal/engine"
	"timedice/internal/stats"
)

// Progress is the live state of one campaign, updated by trial workers with
// atomic counters (and, for the trial-latency sketch and the engine totals,
// under a mutex) and read concurrently by the /metrics and /statusz
// handlers and the -progress reporter. The zero value is unusable; build
// one with NewProgress.
//
// Progress is wall-clock-side bookkeeping only: it never feeds back into
// the simulation, so campaign reports stay byte-identical whether or not
// anything is watching.
type Progress struct {
	tool  string
	total int64
	start time.Time

	done       atomic.Int64
	inflight   atomic.Int64
	violations atomic.Int64
	events     atomic.Int64
	cacheHits  atomic.Int64
	cacheMiss  atomic.Int64

	mu     sync.Mutex
	trialS *stats.Sketch   // per-trial wall-clock seconds
	engine engine.Counters // campaign totals of the State and Work rows
}

// NewProgress starts the campaign clock for tool with the given planned
// trial count (0 when unknown — rate still works, ETA does not).
func NewProgress(tool string, total int64) *Progress {
	return &Progress{tool: tool, total: total, start: time.Now(), trialS: stats.NewSketch()}
}

// TrialStart marks one trial as claimed by a worker.
func (p *Progress) TrialStart() { p.inflight.Add(1) }

// TrialDone marks one trial finished, folding in its event count, oracle
// violations, and wall-clock duration.
func (p *Progress) TrialDone(events int64, violations int, elapsed time.Duration) {
	p.inflight.Add(-1)
	p.done.Add(1)
	p.events.Add(events)
	p.violations.Add(int64(violations))
	p.mu.Lock()
	p.trialS.Add(elapsed.Seconds())
	p.mu.Unlock()
}

// AddCache folds one trial's schedulability-verdict cache tallies
// (core.Cache hits and misses) into the campaign totals.
func (p *Progress) AddCache(hits, misses int64) {
	p.cacheHits.Add(hits)
	p.cacheMiss.Add(misses)
}

// AddEngine folds one trial's engine counters into the campaign totals: the
// State and Work rows of engine.CounterRows, which /statusz publishes as its
// engine object and /metrics as timedice_engine_<row>_total families.
func (p *Progress) AddEngine(c *engine.Counters) {
	p.mu.Lock()
	p.engine.Merge(c)
	p.mu.Unlock()
}

// Status is one consistent-enough snapshot of a running campaign: the
// struct /statusz serves as JSON and the -progress reporter renders as a
// stderr line. Counters are read individually (not under one lock), so a
// snapshot taken mid-update may be off by a trial — fine for a live view.
type Status struct {
	Tool          string  `json:"tool"`
	Total         int64   `json:"total"`
	Done          int64   `json:"done"`
	InFlight      int64   `json:"inFlight"`
	Violations    int64   `json:"violations"`
	Events        int64   `json:"events"`
	CacheHits     int64   `json:"cacheHits"`
	CacheMisses   int64   `json:"cacheMisses"`
	CacheHitRatio float64 `json:"cacheHitRatio"`
	// Engine holds the campaign totals of the engine's State and Work
	// counter rows, keyed by row name (engine.CounterRows).
	Engine map[string]int64 `json:"engine"`
	// ArenaBytesPerStep is the campaign-wide mean of the engine's
	// deterministic cache-traffic proxy (hot-state bytes touched per step).
	ArenaBytesPerStep float64 `json:"arenaBytesPerStep"`
	ElapsedSeconds    float64 `json:"elapsedSeconds"`
	// RatePerSecond is completed trials per elapsed second.
	RatePerSecond float64 `json:"ratePerSecond"`
	// ETASeconds extrapolates the remaining trials at the current rate; -1
	// when unknown (no total, or nothing done yet).
	ETASeconds float64 `json:"etaSeconds"`
	// TrialSeconds are per-trial wall-clock quantiles (p50/p90/p99).
	TrialSecondsP50 float64 `json:"trialSecondsP50"`
	TrialSecondsP90 float64 `json:"trialSecondsP90"`
	TrialSecondsP99 float64 `json:"trialSecondsP99"`
}

// Snapshot assembles the current Status.
func (p *Progress) Snapshot() Status {
	s := Status{
		Tool:        p.tool,
		Total:       p.total,
		Done:        p.done.Load(),
		InFlight:    p.inflight.Load(),
		Violations:  p.violations.Load(),
		Events:      p.events.Load(),
		CacheHits:   p.cacheHits.Load(),
		CacheMisses: p.cacheMiss.Load(),
		ETASeconds:  -1,
	}
	if l := s.CacheHits + s.CacheMisses; l > 0 {
		s.CacheHitRatio = float64(s.CacheHits) / float64(l)
	}
	s.ElapsedSeconds = time.Since(p.start).Seconds()
	if s.ElapsedSeconds > 0 {
		s.RatePerSecond = float64(s.Done) / s.ElapsedSeconds
	}
	if p.total > 0 && s.Done > 0 && s.RatePerSecond > 0 {
		s.ETASeconds = float64(p.total-s.Done) / s.RatePerSecond
	}
	p.mu.Lock()
	s.Engine = p.engine.Values()
	if steps := s.Engine["decisions"]; steps > 0 {
		s.ArenaBytesPerStep = float64(s.Engine["arena_bytes"]) / float64(steps)
	}
	if p.trialS.N() > 0 {
		q := p.trialS.Quantiles(0.5, 0.9, 0.99)
		s.TrialSecondsP50, s.TrialSecondsP90, s.TrialSecondsP99 = q[0], q[1], q[2]
	}
	p.mu.Unlock()
	return s
}

// Line renders the Status as the one-line -progress format:
//
//	simfuzz: 1234/10000 (12.3%) 456.7/s eta 19s violations 0
func (s Status) Line() string {
	frac := ""
	if s.Total > 0 {
		frac = fmt.Sprintf(" (%.1f%%)", 100*float64(s.Done)/float64(s.Total))
	}
	eta := "?"
	if s.ETASeconds >= 0 {
		eta = (time.Duration(s.ETASeconds*float64(time.Second)) / time.Second * time.Second).String()
	}
	total := "?"
	if s.Total > 0 {
		total = fmt.Sprintf("%d", s.Total)
	}
	return fmt.Sprintf("%s: %d/%s%s %.1f/s eta %s violations %d",
		s.Tool, s.Done, total, frac, s.RatePerSecond, eta, s.Violations)
}

// StartReporter prints a Status line to w every interval until the returned
// stop function is called (which prints one final line). It is the engine
// behind the -progress flag; the stream it writes to (stderr) is disjoint
// from the report stream, so reports stay byte-identical with it on.
func (p *Progress) StartReporter(w io.Writer, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fmt.Fprintln(w, p.Snapshot().Line())
			case <-done:
				fmt.Fprintln(w, p.Snapshot().Line())
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}
