// Command simfuzz runs a deterministic simulation-fuzzing campaign: it
// generates schedulability-certified random scenarios (internal/gen), runs
// each through the engine with the full oracle suite attached
// (internal/check), and reports any invariant violation together with a
// shrunk reproducer.
//
// The campaign is reproducible bit-for-bit from -seed: scenario seeds are
// pre-drawn sequentially from one master rng, so the output — including the
// combined event-stream digest — is byte-identical for any -parallel value.
//
//	simfuzz -scenarios 10000 -seed 1 -parallel 4
//
// Campaign operations (all off the report stream, so the report stays
// byte-identical whether or not anyone is watching):
//
//   - -http :9090 serves /metrics (Prometheus text), /statusz (JSON),
//     /healthz, and /debug/pprof for the duration of the run.
//   - -progress prints a periodic one-line status to stderr.
//   - -runs DIR writes a run.json provenance manifest per invocation
//     (argv, flags, build info, seeds, digest, headline counters).
//   - Each worker carries a flight recorder (a bounded ring of the last
//     -recwindow telemetry events); on a worker panic or an oracle
//     violation a post-mortem bundle (events JSONL + Chrome trace +
//     scenario reproducer + meta.json) is dumped under the run directory.
//
// Exit status: 0 on a clean campaign, 1 when any oracle fired, 2 on setup
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"timedice/internal/check"
	"timedice/internal/experiments/runner"
	"timedice/internal/gen"
	"timedice/internal/obs"
	"timedice/internal/policies"
	"timedice/internal/prof"
	"timedice/internal/rng"
)

type config struct {
	scenarios int
	seed      uint64
	parallel  int
	shrink    bool
	window    int    // flight-recorder window, events per worker
	bundleDir string // where post-mortem bundles land; empty disables them

	// checkpoint, when non-empty, is a JSON campaign-state file updated
	// (atomically) after every chunk of checkpointEvery trials; resumeFrom
	// loads one and continues the campaign from its fold position. A resumed
	// campaign's report is byte-identical to the uninterrupted run's: the
	// report is generated purely from the folded state.
	checkpoint      string
	checkpointEvery int
	resumeFrom      string
	// explore, when positive, branches that many engine.Fork futures from up
	// to maxExplorePoints interesting states per scenario (see explore.go).
	explore int
	// stopAfter, when positive, stops the campaign cleanly (exit 0, no
	// report) once at least that many trials are folded — the test hook that
	// simulates an interrupted campaign for the resume round-trip.
	stopAfter int

	prog   *obs.Progress // live campaign state; nil ⇒ campaign makes its own
	ledger *obs.Run      // run manifest; nil-safe

	// injectFailure, when non-zero, forces trial injectFailure-1 to report
	// a synthetic oracle violation (1-based so the zero config is inert).
	// It exists so tests can drive the whole post-mortem path — bundle
	// dump, replay, digest cross-check — without needing a genuinely broken
	// scenario in the corpus.
	injectFailure int
}

func main() {
	var cfg config
	flag.IntVar(&cfg.scenarios, "scenarios", 1000, "number of scenarios to generate and check")
	flag.Uint64Var(&cfg.seed, "seed", 1, "master seed; the whole campaign is a pure function of it")
	flag.IntVar(&cfg.parallel, "parallel", 0, "worker count (<=0: one per CPU); does not affect output")
	flag.BoolVar(&cfg.shrink, "shrink", true, "minimize the first failing scenario before reporting it")
	flag.IntVar(&cfg.window, "recwindow", obs.DefaultRecorderWindow, "flight-recorder window per worker, in telemetry events")
	flag.StringVar(&cfg.checkpoint, "checkpoint", "", "write campaign state to this file after every chunk (enables resumption)")
	flag.IntVar(&cfg.checkpointEvery, "checkpoint-every", defaultCheckpointEvery, "trials per chunk between checkpoint writes")
	flag.StringVar(&cfg.resumeFrom, "resume-from", "", "resume a campaign from a -checkpoint file (flags must match)")
	flag.IntVar(&cfg.explore, "explore", 0, "fork-based exploration: futures to branch per interesting state (0 disables)")
	progress := flag.Bool("progress", false, "print a periodic progress line to stderr")
	obsFlags := obs.AddFlags(flag.CommandLine)
	pf := prof.AddFlags(flag.CommandLine)
	flag.Parse()

	cfg.prog = obs.NewProgress("simfuzz", int64(cfg.scenarios))
	run, srv, err := obsFlags.Start("simfuzz", flag.CommandLine, cfg.prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simfuzz:", err)
		os.Exit(2)
	}
	cfg.ledger = run
	// Bundles land next to run.json when the ledger is on, under the runs
	// root otherwise; an empty -runs disables both.
	cfg.bundleDir = run.Dir()
	if cfg.bundleDir == "" && obsFlags.Runs != "" {
		cfg.bundleDir = obsFlags.Runs
	}

	stopProf, err := pf.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "simfuzz:", err)
		run.Finish(2) //nolint:errcheck // exiting anyway
		os.Exit(2)
	}
	var stopReport func()
	if *progress {
		stopReport = cfg.prog.StartReporter(os.Stderr, 2*time.Second)
	}

	code := campaign(cfg, os.Stdout)

	if stopReport != nil {
		stopReport()
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "simfuzz:", err)
		if code == 0 {
			code = 2
		}
	}
	if srv != nil {
		srv.Close() //nolint:errcheck // shutting down
	}
	if err := run.Finish(code); err != nil {
		fmt.Fprintln(os.Stderr, "simfuzz:", err)
	}
	os.Exit(code)
}

// trial is the per-scenario record; everything the report needs is captured
// here so aggregation is a deterministic fold in index order.
type trial struct {
	policy  policies.Kind
	events  int64
	digest  uint64
	viol    []check.Violation
	total   int
	seed    uint64
	explore exploreStats
}

// defaultCheckpointEvery is the chunk size between checkpoint writes: large
// enough that checkpoint IO is noise, small enough that an interrupted
// overnight campaign loses minutes, not hours.
const defaultCheckpointEvery = 4096

// campaignState is the complete fold state of a campaign: everything the
// final report derives from. It is what -checkpoint serializes after each
// chunk, so a resumed campaign that finishes the remaining trials prints a
// report byte-identical to the uninterrupted run's.
type campaignState struct {
	Version   int    `json:"version"`
	Scenarios int    `json:"scenarios"`
	Seed      uint64 `json:"seed"`
	Explore   int    `json:"explore"`

	Next          int            `json:"next"` // trials [0, Next) are folded
	Combined      uint64         `json:"combined"`
	Events        int64          `json:"events"`
	Violations    int            `json:"violations"`
	Failing       int            `json:"failing"`
	PerPolicy     map[string]int `json:"perPolicy"`
	PerPolicyViol map[string]int `json:"perPolicyViol"`

	FirstBad    int          `json:"firstBad"` // -1 while clean
	FirstSeed   uint64       `json:"firstSeed,omitempty"`
	FirstPolicy string       `json:"firstPolicy,omitempty"`
	FirstDigest uint64       `json:"firstDigest,omitempty"`
	FirstViol   []string     `json:"firstViol,omitempty"`
	ExploreSum  exploreStats `json:"exploreSum"`
}

func newCampaignState(cfg config) *campaignState {
	return &campaignState{
		Version:       1,
		Scenarios:     cfg.scenarios,
		Seed:          cfg.seed,
		Explore:       cfg.explore,
		Combined:      check.DigestSeed,
		PerPolicy:     map[string]int{},
		PerPolicyViol: map[string]int{},
		FirstBad:      -1,
	}
}

// fold accumulates trial i (a global campaign index) into the state. Called
// strictly in index order, which makes the combined digest — a chain over
// every scenario's event-stream digest — independent of worker count and of
// where checkpoint boundaries fell.
func (cs *campaignState) fold(i int, tr trial) {
	cs.PerPolicy[tr.policy.String()]++
	cs.PerPolicyViol[tr.policy.String()] += tr.total
	cs.Events += tr.events
	cs.Violations += tr.total
	if tr.total > 0 {
		cs.Failing++
		if cs.FirstBad < 0 {
			cs.FirstBad = i
			cs.FirstSeed = tr.seed
			cs.FirstPolicy = tr.policy.String()
			cs.FirstDigest = tr.digest
			for _, v := range tr.viol {
				cs.FirstViol = append(cs.FirstViol, v.String())
			}
		}
	}
	cs.Combined = check.Fold64(cs.Combined, tr.digest)
	cs.ExploreSum.add(tr.explore)
	cs.Next = i + 1
}

// writeCheckpoint atomically replaces path with the serialized state
// (write-to-temp + rename, so a crash mid-write never corrupts a resumable
// checkpoint).
func writeCheckpoint(path string, cs *campaignState) error {
	blob, err := json.MarshalIndent(cs, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	_, werr := tmp.Write(append(blob, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: write %s: %v, %v", path, werr, cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

func loadCheckpoint(path string) (*campaignState, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	cs := &campaignState{}
	if err := json.Unmarshal(blob, cs); err != nil {
		return nil, fmt.Errorf("resume: %s: %w", path, err)
	}
	if cs.Version != 1 {
		return nil, fmt.Errorf("resume: %s: unsupported checkpoint version %d", path, cs.Version)
	}
	if cs.PerPolicy == nil {
		cs.PerPolicy = map[string]int{}
	}
	if cs.PerPolicyViol == nil {
		cs.PerPolicyViol = map[string]int{}
	}
	return cs, nil
}

func campaign(cfg config, w io.Writer) int {
	if cfg.scenarios < 0 {
		fmt.Fprintf(w, "simfuzz: -scenarios must be non-negative, got %d\n", cfg.scenarios)
		return 2
	}
	prog := cfg.prog
	if prog == nil {
		prog = obs.NewProgress("simfuzz", int64(cfg.scenarios))
	}
	master := rng.New(cfg.seed)
	seeds := make([]uint64, cfg.scenarios)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}

	cs := newCampaignState(cfg)
	if cfg.resumeFrom != "" {
		loaded, err := loadCheckpoint(cfg.resumeFrom)
		if err != nil {
			fmt.Fprintf(w, "simfuzz: %v\n", err)
			return 2
		}
		if loaded.Scenarios != cfg.scenarios || loaded.Seed != cfg.seed || loaded.Explore != cfg.explore {
			fmt.Fprintf(w, "simfuzz: checkpoint %s is from a different campaign (scenarios %d, seed %d, explore %d; flags say %d, %d, %d)\n",
				cfg.resumeFrom, loaded.Scenarios, loaded.Seed, loaded.Explore, cfg.scenarios, cfg.seed, cfg.explore)
			return 2
		}
		cs = loaded
	}
	every := cfg.checkpointEvery
	if every <= 0 {
		every = defaultCheckpointEvery
	}

	// One flight recorder per worker: the ring is reset at each trial start,
	// so after a failure it holds the tail of exactly the failing run.
	newRecorder := func() (*obs.Recorder, error) { return obs.NewRecorder(cfg.window), nil }

	for cs.Next < cfg.scenarios {
		start := cs.Next
		end := start + every
		if end > cfg.scenarios {
			end = cfg.scenarios
		}
		trials, err := runner.MapPooled(cfg.parallel, newRecorder, seeds[start:end],
			func(rec *obs.Recorder, ci int, seed uint64) (tr trial, err error) {
				i := start + ci // global campaign index
				prog.TrialStart()
				t0 := time.Now()
				rec.Reset()
				defer func() {
					if p := recover(); p != nil {
						// Dump the live window before the stack unwinds any
						// further: a worker panic is exactly the case where no
						// deterministic replay is available.
						dumpPanicBundle(cfg, i, seed, rec, p)
						err = fmt.Errorf("scenario %d (seed %#x): panic: %v", i, seed, p)
					}
					prog.TrialDone(tr.events, tr.total, time.Since(t0))
				}()
				sc := gen.Generate(rng.New(seed), gen.DefaultOptions())
				suite, st, err := gen.RunRecorded(sc, rec)
				if err != nil {
					return trial{}, fmt.Errorf("scenario %d (seed %#x): %w", i, seed, err)
				}
				prog.AddCache(st.Policy.CacheHits, st.Policy.CacheMisses)
				prog.AddEngine(&st.Counters)
				vs, total := suite.Violations()
				if i+1 == cfg.injectFailure {
					vs = append(vs, check.Violation{Oracle: "injected", Msg: "forced failure (test hook)"})
					total++
				}
				tr = trial{
					policy: sc.Policy,
					events: suite.Events(),
					digest: suite.Digest(),
					viol:   vs,
					total:  total,
					seed:   seed,
				}
				if cfg.explore > 0 {
					est, eviols, err := exploreScenario(sc, cfg.explore)
					if err != nil {
						return trial{}, fmt.Errorf("scenario %d (seed %#x): explore: %w", i, seed, err)
					}
					tr.explore = est
					tr.viol = append(tr.viol, eviols...)
					tr.total += len(eviols)
				}
				return tr, nil
			})
		if err != nil {
			fmt.Fprintf(w, "simfuzz: %v\n", err)
			return 2
		}
		// Deterministic fold in global index order.
		for ci, tr := range trials {
			cs.fold(start+ci, tr)
		}
		if cfg.checkpoint != "" {
			if err := writeCheckpoint(cfg.checkpoint, cs); err != nil {
				fmt.Fprintf(w, "simfuzz: %v\n", err)
				return 2
			}
		}
		if cfg.stopAfter > 0 && cs.Next >= cfg.stopAfter && cs.Next < cfg.scenarios {
			// Test hook: simulate an interruption. The status goes to stderr,
			// never the report stream, so the eventual resumed report stays
			// byte-identical to an uninterrupted run's.
			fmt.Fprintf(os.Stderr, "simfuzz: stopped after %d/%d scenarios (checkpoint %s)\n",
				cs.Next, cfg.scenarios, cfg.checkpoint)
			return 0
		}
	}

	cfg.ledger.SetDigest(cs.Combined)
	cfg.ledger.AddCounter("scenarios", int64(cfg.scenarios))
	cfg.ledger.AddCounter("violations", int64(cs.Violations))
	cfg.ledger.AddCounter("events", cs.Events)

	fmt.Fprintf(w, "simfuzz: %d scenarios, seed %d\n", cfg.scenarios, cfg.seed)
	for _, k := range []policies.Kind{policies.NoRandom, policies.TimeDiceU, policies.TimeDiceW} {
		fmt.Fprintf(w, "  %-9s %6d scenarios, %d violations\n", k, cs.PerPolicy[k.String()], cs.PerPolicyViol[k.String()])
	}
	fmt.Fprintf(w, "  events    %d\n", cs.Events)
	if cfg.explore > 0 {
		fmt.Fprintf(w, "  explore   %d points, %d futures, %d distinct, %d control mismatches\n",
			cs.ExploreSum.Points, cs.ExploreSum.Futures, cs.ExploreSum.Distinct, cs.ExploreSum.ControlMismatches)
	}
	fmt.Fprintf(w, "  digest    %#016x\n", cs.Combined)

	if cs.Violations == 0 {
		fmt.Fprintf(w, "ok: 0 oracle violations\n")
		return 0
	}

	fmt.Fprintf(w, "FAIL: %d oracle violations across %d scenarios\n", cs.Violations, cs.Failing)
	fmt.Fprintf(w, "first failing scenario %d (seed %#x, policy %s):\n", cs.FirstBad, cs.FirstSeed, cs.FirstPolicy)
	for _, v := range cs.FirstViol {
		fmt.Fprintf(w, "  %s\n", v)
	}
	dumpViolationBundle(cfg, cs)
	sc := gen.Generate(rng.New(cs.FirstSeed), gen.DefaultOptions())
	if cfg.shrink {
		sc = gen.Shrink(sc, gen.Fails, 2000)
	}
	if blob, err := gen.Encode(sc); err == nil {
		fmt.Fprintf(w, "reproducer (shrunk=%v):\n%s\n", cfg.shrink, blob)
	}
	return 1
}

// dumpViolationBundle re-runs the first failing scenario with a fresh flight
// recorder and writes the post-mortem bundle. The re-run is the determinism
// cross-check: the replay's event-stream digest must equal the live trial's,
// and both land in meta.json so a mismatch is diagnosable from the bundle
// alone. The bundle also embeds a pre-violation engine snapshot
// (state.snapshot + its prefix digest), so diagnosis restores to just before
// the failing step instead of replaying the run from zero. Failures to write
// are reported on stderr and otherwise ignored — the campaign verdict never
// depends on post-mortem IO.
func dumpViolationBundle(cfg config, cs *campaignState) {
	if cfg.bundleDir == "" {
		return
	}
	sc := gen.Generate(rng.New(cs.FirstSeed), gen.DefaultOptions())
	rec := obs.NewRecorder(cfg.window)
	suite, st, err := gen.RunRecorded(sc, rec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simfuzz: post-mortem replay: %v\n", err)
		return
	}
	info := obs.BundleInfo{
		Tool:          "simfuzz",
		Reason:        obs.ReasonOracleViolation,
		Detail:        cs.FirstViol,
		Seed:          cs.FirstSeed,
		TrialIndex:    cs.FirstBad,
		Events:        rec.Window(),
		EventsTotal:   rec.Total(),
		EventsDropped: rec.Dropped(),
		Partitions:    partitionNames(sc),
		LiveDigest:    cs.FirstDigest,
		ReplayDigest:  suite.Digest(),
		Counters:      st.Counters.Values(),
	}
	info.Scenario, _ = gen.Encode(sc)
	// The pre-violation snapshot: the last step boundary before the first
	// oracle hit (or before the horizon, for failures the suite replay does
	// not reproduce, e.g. injected ones).
	if cp, _, err := gen.CheckpointBeforeViolation(sc); err == nil {
		info.Snapshot = cp.State
		info.SnapshotTime = cp.At
		info.PrefixDigest = cp.PrefixDigest
	} else {
		fmt.Fprintf(os.Stderr, "simfuzz: pre-violation checkpoint: %v\n", err)
	}
	dir, err := obs.WriteBundle(cfg.bundleDir, info)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simfuzz: post-mortem bundle: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "simfuzz: post-mortem bundle: %s\n", dir)
	cfg.ledger.AddArtifact(dir)
	if suite.Digest() != cs.FirstDigest {
		fmt.Fprintf(os.Stderr, "simfuzz: WARNING: replay digest %#016x != live digest %#016x — nondeterminism\n",
			suite.Digest(), cs.FirstDigest)
	}
}

// dumpPanicBundle writes the flight-recorder window of a trial whose worker
// panicked. Called from the worker's recover, so it must not panic itself.
func dumpPanicBundle(cfg config, index int, seed uint64, rec *obs.Recorder, p any) {
	if cfg.bundleDir == "" {
		return
	}
	var blob []byte
	sc := gen.Generate(rng.New(seed), gen.DefaultOptions())
	blob, _ = gen.Encode(sc)
	dir, err := obs.WriteBundle(cfg.bundleDir, obs.BundleInfo{
		Tool:          "simfuzz",
		Reason:        obs.ReasonWorkerPanic,
		Detail:        []string{fmt.Sprint(p)},
		Seed:          seed,
		TrialIndex:    index,
		Scenario:      blob,
		Events:        rec.Window(),
		EventsTotal:   rec.Total(),
		EventsDropped: rec.Dropped(),
		Partitions:    partitionNames(sc),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simfuzz: post-mortem bundle: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "simfuzz: post-mortem bundle: %s\n", dir)
	cfg.ledger.AddArtifact(dir)
}

func partitionNames(sc gen.Scenario) []string {
	names := make([]string, len(sc.Spec.Partitions))
	for i, p := range sc.Spec.Partitions {
		names[i] = p.Name
	}
	return names
}
