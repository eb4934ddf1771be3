package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"syscall"
	"time"

	"timedice/internal/experiments"
	"timedice/internal/vtime"
)

// workers is the load every workload puts on the host: the dense workload's
// shard pool, the fuzz campaign's trial pool and the paper regeneration's
// Parallel setting all use two, the core count of the host the baseline was
// recorded on.
const workers = 2

// size holds every constant that sets how much work a workload does. The
// benchmark runs fullSize; the test passes a reduced size through the same
// code.
type size struct {
	// <Workload>Setups is how many times that workload builds and warms its
	// inputs; setup_s is the median, and the last set-up is the one
	// measured. A cheap set-up repeats more often, since one short timing
	// is noisier than one long one.
	DenseSetups, SparseSetups, FuzzSetups, PaperSetups int

	DenseP            int
	DenseWarm         vtime.Duration // two replenishment periods at P=1024
	DenseRound        vtime.Duration // two replenishment periods: costs alternate between periods
	DenseDigestRounds int            // measured rounds before the digest is taken

	SparseP            int
	SparseWarm         vtime.Duration // two cycles of the slowest cold period
	SparseRound        vtime.Duration
	SparseDigestRounds int

	FuzzWarm   int // scenarios run during set-up
	FuzzBatch  int // scenarios per measured round
	FuzzDigest int // the digest folds scenarios [0, FuzzDigest) of the campaign

	Paper experiments.Scale
}

var fullSize = size{
	DenseSetups:  3,  // about 2.7 s each
	SparseSetups: 15, // about 0.06 s each
	FuzzSetups:   9,  // about 0.12 s each
	PaperSetups:  3,  // about 2.7 s each

	DenseP:            1024,
	DenseWarm:         3200 * vtime.Millisecond,
	DenseRound:        3200 * vtime.Millisecond,
	DenseDigestRounds: 1,

	SparseP:            16384,
	SparseWarm:         5 * vtime.Second,
	SparseRound:        30 * vtime.Second, // about 0.3 s of wall time
	SparseDigestRounds: 4,

	FuzzWarm:   1024,
	FuzzBatch:  2048,
	FuzzDigest: 16384,

	Paper: experiments.Quick(),
}

// decl declares one metric: its name and unit. The two tables below are
// the benchmark's output contract; BENCHMARK.json declares the same sets
// and main_test.go holds them equal.
type decl struct{ name, unit string }

// endToEnd metrics come from an untraced run. An "op" is the unit of work
// a user of the workload counts: one simulated second (dense, sparse), one
// scenario (fuzz), one full regeneration (paper-quick).
var endToEnd = []decl{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayer metrics come from a traced run. Every workload reports every one;
// a layer the workload does not run reports 0.
var perLayer = append([]decl{
	{"engine.step_us", "us"},
	{"engine.step_us_p99", "us"},
	{"engine.self_us", "us"},
	{"engine.steps_per_sim_s", "1/s"},
	{"engine.arena_bytes_per_step", "B"},
	{"engine.allocs_per_step", "count"},
	{"engine.run_self_us", "us"},
	{"engine.decisions_per_scenario", "count"},
	{"policy.pick_us", "us"},
	{"policy.pick_us_p99", "us"},
	{"core.fixpoint_iters_per_decision", "count"},
	{"core.interference_terms_per_decision", "count"},
	{"core.sched_tests_per_decision", "count"},
	{"core.candidates_per_decision", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.search_reuse_ratio", "ratio"},
	{"shard.merge_ns_per_step", "ns"},
	{"process.cpu_per_wall", "ratio"},
	{"gen.generate_us", "us"},
	{"gen.build_us", "us"},
	{"check.event_ns", "ns"},
	{"obs.recorder_event_ns", "ns"},
	{"check.finish_us", "us"},
	{"check.events_per_scenario", "count"},
	{"check.differential_violations", "count"},
	{"runner.busy_ratio", "ratio"},
	{"runner.trials_per_regen", "count"},
	{"runner.trials_failed", "count"},
	{"runner.trials_per_s", "1/s"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
	{"host.calibration_ms", "ms"},
}, sectionDecls()...)

func sectionDecls() []decl {
	out := make([]decl, len(sections))
	for i, s := range sections {
		out[i] = decl{"experiments." + s.name + "_s", "s"}
	}
	return out
}

// roundStats is what one measured round reports back to measure.
type roundStats struct {
	units float64 // ops completed
	// covered is the wall time the round spent inside timed layer calls
	// (traced rounds only), already divided by the number of workers that
	// ran them, so covered/wall is the share of the round the trace explains.
	covered time.Duration
}

// benchWorkload is one benchmark workload: set up, then rounds of fixed work.
type benchWorkload interface {
	// setups is how many times measure calls setup.
	setups() int
	// setup builds the inputs and warms them up; the last set-up is the one
	// measured.
	setup() error
	// round runs one fixed amount of work, timing its layers when traced.
	// It may append per-op latencies in ms to lat; when it appends none, the
	// round's wall time per op is used.
	round(traced bool, lat *[]float64) (roundStats, error)
	// digestReady reports whether the fixed prefix the digest covers has
	// run, so the measured phase may stop.
	digestReady() bool
	// finish checks the outputs and reports the per-layer metrics of the
	// traced rounds (nil when none ran).
	finish(traced bool) (outcome, error)
}

// outcome is a workload's verdict on its own outputs.
type outcome struct {
	digest    string
	checks    []checkResult
	attempted int
	failed    int
	layers    map[string]float64
}

type checkResult struct {
	name string
	ok   bool
	msg  string
}

func (o *outcome) check(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, checkResult{name: name, ok: ok, msg: fmt.Sprintf(format, args...)})
}

// measure sets w up w.setups() times, then runs rounds until seconds of
// measurement have passed and the digest prefix has run. A traced run
// alternates untraced and traced rounds, so the trace overhead is measured
// in the same process on the same state; its per-layer metrics come from the
// traced rounds alone.
func measure(w benchWorkload, seconds time.Duration, trace bool) (result, error) {
	cal := newCalibrator()
	var (
		setups, setupCal, roundCal []float64
		prev                       time.Duration // the previous set-up or round
	)
	for range w.setups() {
		runtime.GC() // drop the previous set-up's inputs before building the next
		cal.sample(&setupCal, prev)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		prev = time.Since(t0)
		setups = append(setups, prev.Seconds())
	}

	var (
		lat, discard        []float64
		plainUnits, tracedU float64
		plainWall, tracedW  time.Duration
		covered, tracedCPU  time.Duration
		tracedRounds        int
		start               = time.Now()
	)
	for i := 0; ; i++ {
		traced := trace && i%2 == 1
		sink := &lat
		if traced {
			sink = &discard
		}
		cal.sample(&roundCal, prev)
		n := len(*sink)
		c0 := cpuTime()
		t0 := time.Now()
		st, err := w.round(traced, sink)
		wall := time.Since(t0)
		prev = wall
		if err != nil {
			return result{}, err
		}
		if !traced && len(*sink) == n && st.units > 0 {
			*sink = append(*sink, float64(wall)/1e6/st.units)
		}
		if traced {
			tracedU += st.units
			tracedW += wall
			covered += st.covered
			tracedCPU += cpuTime() - c0
			tracedRounds++
		} else {
			plainUnits += st.units
			plainWall += wall
		}
		if time.Since(start) >= seconds && w.digestReady() && (!trace || tracedRounds > 0) {
			break
		}
	}

	out, err := w.finish(trace)
	if err != nil {
		return result{}, err
	}
	res := result{
		digest:    out.digest,
		checks:    out.checks,
		attempted: out.attempted,
		failed:    out.failed,
	}
	if !trace {
		k := scale(roundCal)
		res.metrics = map[string]float64{
			"ops_per_s":   plainUnits / (plainWall.Seconds() * k),
			"op_p50_ms":   median(lat) * k,
			"setup_s":     median(setups) * scale(setupCal),
			"rss_peak_mb": peakRSSMB() - calBytes/(1<<20),
		}
		return res, nil
	}
	layers := out.layers
	if layers == nil {
		layers = map[string]float64{}
	}
	layers["trace.coverage"] = ratio(covered.Seconds(), tracedW.Seconds())
	layers["trace.overhead"] = (tracedW.Seconds()/tracedU)/(plainWall.Seconds()/plainUnits) - 1
	layers["process.cpu_per_wall"] = ratio(tracedCPU.Seconds(), tracedW.Seconds())
	layers["host.calibration_ms"] = median(roundCal) * 1e3
	res.metrics = layers
	return res, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss, which Linux
// reports in KiB and keeps equal to VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hist is a log-linear histogram of nanosecond durations: each power of two
// splits into 32 linear sub-buckets, so a quantile is exact to within 1/32
// of its value, and an observation costs a few integer operations — cheap
// enough to time every engine step.
type hist struct {
	counts [64 * 32]int64
	n      int64
}

func (h *hist) observe(ns int64) {
	if ns < 1 {
		ns = 1
	}
	e := bits.Len64(uint64(ns)) - 1
	var sub int64
	if e >= 5 {
		sub = ns >> (e - 5) & 31
	} else {
		sub = ns << (5 - e) & 31
	}
	h.counts[e*32+int(sub)]++
	h.n++
}

// quantile returns the midpoint of the bucket holding the q-quantile, in ns.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			e, sub := i/32, float64(i%32)
			lo := math.Ldexp(32+sub, e-5)
			return lo + math.Ldexp(0.5, e-5)
		}
	}
	return 0
}
