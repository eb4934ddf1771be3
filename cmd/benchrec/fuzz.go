package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"timedice/internal/check"
	"timedice/internal/core"
	"timedice/internal/experiments/runner"
	"timedice/internal/gen"
	"timedice/internal/obs"
	"timedice/internal/rng"
	"timedice/internal/telemetry"
)

// fnvOffset and fnvPrime fold scenario digests into the campaign digest the
// way cmd/simfuzz does.
const fnvOffset, fnvPrime = uint64(0xcbf29ce484222325), uint64(0x100000001b3)

// crossChecks is how many traced scenarios finish re-runs through
// gen.RunRecorded to prove the timed split runs the same program.
const crossChecks = 64

// fuzzWorkload is the simfuzz campaign loop: scenario seeds drawn in order
// from one master stream, trials fanned over runner.MapPooled, per-scenario
// digests folded in index order.
type fuzzWorkload struct {
	seed                    uint64
	nSetups                 int
	warm, batch, digestSize int

	master       *rng.Rand
	next         int    // campaign index of the next scenario
	combined     uint64 // fold of scenario digests [0, next) while next <= digestSize
	digest       string
	setupDigests []string

	states []*fuzzWorker
	claim  atomic.Int64

	scenarios, failing int
	// differential counts the differential oracle's violations, which do not
	// fail a scenario: the analytic bound that oracle checks against does not
	// cover every polling-server case (see the package documentation). Every
	// other oracle still fails the scenario.
	differential int
	firstFailure string
	samples      []sample // traced scenarios finish re-checks
	acc          fuzzAcc  // traced-round totals
	tracedWall   time.Duration
}

type sample struct {
	seed   uint64
	digest uint64
}

// fuzzWorker is one pool worker's reusable state: its flight recorder, the
// timing wrappers around the two sinks, and its share of the traced totals.
type fuzzWorker struct {
	rec         *obs.Recorder
	suite, recT timedSink
	acc         fuzzAcc
}

// fuzzAcc totals the traced scenarios' layer timings and counters.
type fuzzAcc struct {
	n                                 int64
	generate, build, run, finish, all time.Duration
	sinkSuite, sinkRec                time.Duration
	eventsSuite, eventsRec            int64
	decisions, arena                  int64
	pick                              time.Duration
	simTime                           float64
	tdDecisions, iters, terms         int64
	stats                             core.Stats
}

func (a *fuzzAcc) add(b fuzzAcc) {
	a.n += b.n
	a.generate += b.generate
	a.build += b.build
	a.run += b.run
	a.finish += b.finish
	a.all += b.all
	a.sinkSuite += b.sinkSuite
	a.sinkRec += b.sinkRec
	a.eventsSuite += b.eventsSuite
	a.eventsRec += b.eventsRec
	a.decisions += b.decisions
	a.arena += b.arena
	a.pick += b.pick
	a.simTime += b.simTime
	a.tdDecisions += b.tdDecisions
	a.iters += b.iters
	a.terms += b.terms
	addStats(&a.stats, b.stats, core.Stats{})
}

// timedSink times every Event call into the sink it wraps.
type timedSink struct {
	next telemetry.Sink
	ns   time.Duration
	n    int64
}

func (t *timedSink) Event(e telemetry.Event) {
	t0 := time.Now()
	t.next.Event(e)
	t.ns += time.Since(t0)
	t.n++
}

// trial is one scenario's result.
type trial struct {
	digest uint64
	// violations counts the oracle violations that fail the scenario;
	// differential counts the differential oracle's (see fuzzWorkload).
	violations, differential int
	ms                       float64
	msg                      string
}

func newFuzz(sz size, seed uint64) *fuzzWorkload {
	return &fuzzWorkload{seed: seed, nSetups: sz.FuzzSetups, warm: sz.FuzzWarm, batch: sz.FuzzBatch, digestSize: sz.FuzzDigest}
}

func (f *fuzzWorkload) setups() int { return f.nSetups }

func (f *fuzzWorkload) setup() error {
	f.master = rng.New(f.seed)
	f.next = 0
	f.combined = fnvOffset
	f.digest = ""
	f.states = make([]*fuzzWorker, workers)
	for i := range f.states {
		f.states[i] = &fuzzWorker{rec: obs.NewRecorder(obs.DefaultRecorderWindow)}
	}
	if _, err := f.runBatch(f.warm, false, nil); err != nil {
		return err
	}
	f.setupDigests = append(f.setupDigests, fmt.Sprintf("%016x", f.combined))
	return nil
}

func (f *fuzzWorkload) round(traced bool, lat *[]float64) (roundStats, error) {
	before := f.acc
	wall, err := f.runBatch(f.batch, traced, lat)
	if err != nil {
		return roundStats{}, err
	}
	st := roundStats{units: float64(f.batch)}
	if traced {
		f.tracedWall += wall
		layers := func(a fuzzAcc) time.Duration {
			return a.generate + a.build + a.run + a.sinkSuite + a.sinkRec + a.pick + a.finish
		}
		st.covered = (layers(f.acc) - layers(before)) / workers
	}
	return st, nil
}

// runBatch runs the next n scenarios of the campaign on the worker pool and
// folds them in index order.
func (f *fuzzWorkload) runBatch(n int, traced bool, lat *[]float64) (time.Duration, error) {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = f.master.Uint64()
	}
	f.claim.Store(0)
	newState := func() (*fuzzWorker, error) {
		return f.states[f.claim.Add(1)-1], nil
	}
	t0 := time.Now()
	trials, err := runner.MapPooled(workers, newState, seeds, func(ws *fuzzWorker, _ int, seed uint64) (trial, error) {
		if traced {
			return ws.tracedTrial(seed)
		}
		return ws.trial(seed)
	})
	wall := time.Since(t0)
	if err != nil {
		return 0, err
	}
	for i, tr := range trials {
		f.scenarios++
		f.differential += tr.differential
		if tr.violations > 0 {
			f.failing++
			if f.firstFailure == "" {
				f.firstFailure = fmt.Sprintf("scenario %d (seed %#x): %s", f.next, seeds[i], tr.msg)
			}
		}
		if f.next < f.digestSize {
			for b := 0; b < 64; b += 8 {
				f.combined = (f.combined ^ (tr.digest >> b & 0xff)) * fnvPrime
			}
			if f.next+1 == f.digestSize {
				f.digest = fmt.Sprintf("%016x", f.combined)
			}
		}
		f.next++
		if lat != nil {
			*lat = append(*lat, tr.ms)
		}
		if traced && len(f.samples) < crossChecks {
			f.samples = append(f.samples, sample{seed: seeds[i], digest: tr.digest})
		}
	}
	for _, ws := range f.states {
		f.acc.add(ws.acc)
		ws.acc = fuzzAcc{}
	}
	return wall, nil
}

// trial is the untraced scenario: exactly simfuzz's per-scenario work.
func (ws *fuzzWorker) trial(seed uint64) (trial, error) {
	t0 := time.Now()
	ws.rec.Reset()
	sc := gen.Generate(rng.New(seed), gen.DefaultOptions())
	suite, _, err := gen.RunRecorded(sc, ws.rec)
	if err != nil {
		return trial{}, fmt.Errorf("seed %#x: %w", seed, err)
	}
	return trialOf(suite, time.Since(t0)), nil
}

// tracedTrial is gen.RunRecorded built from its public parts, with each
// part timed: generate, build (gen.Build + check.NewSuite), run (RunFor with
// both sinks wrapped in timers and Pick timed by MeasureLatency), and finish
// (Finish + CheckCounters).
func (ws *fuzzWorker) tracedTrial(seed uint64) (trial, error) {
	t0 := time.Now()
	ws.rec.Reset()
	sc := gen.Generate(rng.New(seed), gen.DefaultOptions())
	t1 := time.Now()
	suite, err := check.NewSuite(sc.Spec, sc.Policy)
	if err != nil {
		return trial{}, fmt.Errorf("seed %#x: %w", seed, err)
	}
	sys, err := gen.Build(sc)
	if err != nil {
		return trial{}, fmt.Errorf("seed %#x: %w", seed, err)
	}
	ws.suite = timedSink{next: suite}
	ws.recT = timedSink{next: ws.rec}
	sys.MeasureLatency = true
	sys.AttachTelemetry(telemetry.Multi{&ws.suite, &ws.recT})
	t2 := time.Now()
	sys.RunFor(sc.Horizon)
	sys.FlushTelemetry()
	t3 := time.Now()
	suite.Finish(sys.Now())
	suite.CheckCounters(&sys.Counters, sc.Horizon)
	t4 := time.Now()

	a := &ws.acc
	a.n++
	a.generate += t1.Sub(t0)
	a.build += t2.Sub(t1)
	a.run += t3.Sub(t2) - ws.suite.ns - ws.recT.ns - sys.Counters.PolicyTime
	a.finish += t4.Sub(t3)
	a.all += t4.Sub(t0)
	a.sinkSuite += ws.suite.ns
	a.sinkRec += ws.recT.ns
	a.eventsSuite += ws.suite.n
	a.eventsRec += ws.recT.n
	a.decisions += sys.Counters.Decisions
	a.arena += sys.Counters.ArenaBytesTouched
	a.pick += sys.Counters.PolicyTime
	a.simTime += sc.Horizon.Seconds()
	if p, ok := sys.Policy.(interface{ Stats() core.Stats }); ok {
		a.tdDecisions += sys.Counters.Decisions
		a.iters += sys.Counters.FixpointIters
		a.terms += sys.Counters.InterferenceTerms
		addStats(&a.stats, p.Stats(), core.Stats{})
	}
	return trialOf(suite, t4.Sub(t0)), nil
}

func trialOf(suite *check.Suite, d time.Duration) trial {
	vs, total := suite.Violations()
	tr := trial{digest: suite.Digest(), ms: float64(d) / 1e6}
	for _, v := range vs {
		if v.Oracle == check.OracleDifferential {
			tr.differential++
		}
	}
	tr.violations = total - tr.differential
	if total > 0 {
		tr.msg = fmt.Sprint(vs)
	}
	return tr
}

func (f *fuzzWorkload) digestReady() bool { return f.digest != "" }

func (f *fuzzWorkload) finish(traced bool) (outcome, error) {
	var o outcome
	o.digest = f.digest
	o.attempted, o.failed = f.scenarios, f.failing
	o.check("oracle_violations_zero", f.failing == 0, "%d failing scenarios; first: %s", f.failing, f.firstFailure)
	o.check("setups_agree", allEqual(f.setupDigests), "warm-up digests %v", f.setupDigests)
	if !traced {
		return o, nil
	}
	mismatched := 0
	for _, s := range f.samples {
		suite, _, err := gen.RunRecorded(gen.Generate(rng.New(s.seed), gen.DefaultOptions()), obs.NewRecorder(obs.DefaultRecorderWindow))
		if err != nil {
			return o, err
		}
		if suite.Digest() != s.digest {
			mismatched++
		}
	}
	o.check("traced_split_matches_run_recorded", mismatched == 0, "%d of %d traced scenarios differ from gen.RunRecorded", mismatched, len(f.samples))

	a := f.acc
	n := float64(a.n)
	us := func(d time.Duration) float64 { return ratio(float64(d)/1e3, n) }
	o.layers = map[string]float64{
		"gen.generate_us":                      us(a.generate),
		"gen.build_us":                         us(a.build),
		"engine.run_self_us":                   us(a.run),
		"check.event_ns":                       ratio(float64(a.sinkSuite), float64(a.eventsSuite)),
		"obs.recorder_event_ns":                ratio(float64(a.sinkRec), float64(a.eventsRec)),
		"check.finish_us":                      us(a.finish),
		"check.events_per_scenario":            ratio(float64(a.eventsSuite), n),
		"engine.decisions_per_scenario":        ratio(float64(a.decisions), n),
		"engine.steps_per_sim_s":               ratio(float64(a.decisions), a.simTime),
		"engine.arena_bytes_per_step":          ratio(float64(a.arena), float64(a.decisions)),
		"policy.pick_us":                       ratio(float64(a.pick)/1e3, float64(a.decisions)),
		"core.fixpoint_iters_per_decision":     ratio(float64(a.iters), float64(a.tdDecisions)),
		"core.interference_terms_per_decision": ratio(float64(a.terms), float64(a.tdDecisions)),
		"core.sched_tests_per_decision":        ratio(float64(a.stats.SchedTests), float64(a.stats.Decisions)),
		"core.candidates_per_decision":         ratio(float64(a.stats.CandidateSum), float64(a.stats.Decisions)),
		"core.cache_hit_ratio":                 ratio(float64(a.stats.CacheHits), float64(a.stats.CacheHits+a.stats.CacheMisses)),
		"core.search_reuse_ratio":              ratio(float64(a.stats.SearchReuses), float64(a.stats.Decisions)),
		"runner.busy_ratio":                    ratio(a.all.Seconds(), f.tracedWall.Seconds()*workers),
		"check.differential_violations":        float64(f.differential),
	}
	return o, nil
}
