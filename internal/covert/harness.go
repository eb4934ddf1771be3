package covert

import (
	"timedice/internal/engine"
	"timedice/internal/ml"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// Harness is a reusable covert-channel trial runner: the instrumented system
// — partitions, servers, channel tasks, noise hooks, policy, telemetry
// buffers — is built once, and each Run replays the construction's entire
// randomness derivation for a new seed before resetting and re-simulating.
// A trial on a reused Harness is bit-identical to a fresh covert.Run with
// the same Config and seed (pinned by TestHarnessMatchesRun), it just skips
// the ~system's worth of allocations per trial that construction would cost.
//
// A Harness is single-threaded, like the simulation it owns. Campaigns
// parallelize by giving each worker its own Harness (see
// experiments.Campaign, built on runner.MapPooled).
type Harness struct {
	cfg     Config // filled copy
	sys     *engine.System
	cs      *channelState
	symbols []int

	// The fresh-run randomness tree, retained so Run can reseed it in the
	// exact order Run's construction consumed it: root seeds bitRand,
	// noiseRand, and polRand by Split, then instrument splits noiseRand
	// into cs.noiseSplits, in order.
	root, bitRand, noiseRand, polRand *rng.Rand

	horizon vtime.Time
}

// NewHarness validates and fills cfg and builds the instrumented system.
// cfg.Seed only sets the default for Run; every Run reseeds everything.
func NewHarness(cfg Config) (*Harness, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	h := &Harness{cfg: cfg}
	h.root = rng.New(cfg.Seed)
	h.bitRand = h.root.Split()
	h.noiseRand = h.root.Split()
	h.polRand = h.root.Split()

	totalWindows := cfg.WarmupWindows + cfg.ProfileWindows + cfg.TestWindows
	h.symbols = makeSymbols(cfg, h.bitRand, totalWindows)

	built, cs, err := instrument(cfg, cfg.Spec, h.symbols, h.noiseRand)
	if err != nil {
		return nil, err
	}
	h.cs = cs
	pol, err := policies.Build(cfg.Policy, built.Partitions, policies.Options{Quantum: cfg.Quantum})
	if err != nil {
		return nil, err
	}
	h.sys, err = engine.New(built.Partitions, pol, h.polRand)
	if err != nil {
		return nil, err
	}
	cs.install(h.sys)
	if cfg.Telemetry != nil {
		h.sys.AttachTelemetry(cfg.Telemetry)
	}

	// Simulate long enough for the last test window's response to land;
	// responses can spill a few windows past their arrival.
	h.horizon = vtime.Time(0).Add(vtime.Duration(totalWindows+8) * cfg.Window)
	return h, nil
}

// Run executes one trial with the given seed and returns its decoded Result.
// The returned Result's Observation.Vector slices alias the Harness's
// internal buffers and are overwritten by the next Run call; the scalar
// metrics (accuracies, capacity, histograms) are stable. Copy the vectors
// first if a caller needs them across trials.
func (h *Harness) Run(seed uint64, vecTrainers ...ml.Trainer) (*Result, error) {
	cfg := h.cfg
	cfg.Seed = seed

	// Replay the fresh-run derivation: root → bit/noise/policy streams →
	// instrumentation splits, each consuming exactly the draws a fresh
	// construction would.
	h.root.Seed(seed)
	h.root.SplitInto(h.bitRand)
	h.root.SplitInto(h.noiseRand)
	h.root.SplitInto(h.polRand)
	fillSymbols(cfg, h.bitRand, h.symbols)
	for _, r := range h.cs.noiseSplits {
		h.noiseRand.SplitInto(r)
	}

	h.cs.resetBuffers()
	h.sys.Reset()
	h.sys.Run(h.horizon)
	return decode(cfg, h.cs, h.symbols, vecTrainers)
}
