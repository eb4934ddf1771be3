package experiments

import (
	"io"

	"timedice/internal/covert"
	"timedice/internal/engine"
	"timedice/internal/experiments/runner"
	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/server"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

// AblationResult collects the sensitivity studies for the design choices
// DESIGN.md calls out: the randomization quantum (MIN_INV_SIZE), the budget
// server policy, the selection mode, the multi-bit channel extension, and
// the noise partitions' timing variation.
type AblationResult struct {
	Quantum   []QuantumPoint
	Servers   []ServerPoint
	Selection []SelectionPoint
	Levels    []LevelPoint
	Noise     []NoisePoint
}

// QuantumPoint measures the security/overhead trade-off of one quantum size.
type QuantumPoint struct {
	Quantum         vtime.Duration
	RTAccuracy      float64
	Capacity        float64
	DecisionsPerSec float64
}

// ServerPoint measures the channel under one budget-server policy.
type ServerPoint struct {
	Server     server.Policy
	RTAccuracy float64
	Capacity   float64
}

// SelectionPoint compares TimeDiceU vs TimeDiceW per load.
type SelectionPoint struct {
	Policy     policies.Kind
	Load       Load
	RTAccuracy float64
	Capacity   float64
}

// LevelPoint measures the multi-bit extension: symbol accuracy and the
// resulting bit rate (symbols carry log2(levels) bits).
type LevelPoint struct {
	Levels    int
	Accuracy  float64
	GuessRate float64
}

// NoisePoint measures channel strength against the noise partitions' timing
// variation, under both schedulers.
type NoisePoint struct {
	Fraction          float64
	NoRandomAccuracy  float64
	TimeDiceWAccuracy float64
	NoRandomCapacity  float64
	TimeDiceWCapacity float64
}

// ablationPoint is what one ablation row prints of a trial: a channel run's
// RT accuracy and capacity, or a decision-rate probe's rate. Trials
// reduce their covert.Result to it inside the worker, so no Result outlives
// its trial (keeping all of them until rendering doubles the section's peak
// memory).
type ablationPoint struct{ acc, capacity, rate float64 }

// Ablation runs all five sweeps at the given scale. Every channel run and
// decision-rate probe is an independent trial; one flat list of them fans
// out across sc.Parallel workers, and the tables render after the fan-in.
func Ablation(sc Scale, w io.Writer) (*AblationResult, error) {
	sc = sc.withDefaults()
	quanta := []vtime.Duration{vtime.FromFloatMS(0.5), vtime.MS(1), vtime.MS(2), vtime.MS(4)}
	servers := []server.Policy{server.Polling, server.Deferrable, server.Sporadic}
	loads := []Load{BaseLoad, LightLoad}
	selections := []policies.Kind{policies.TimeDiceU, policies.TimeDiceW}
	levelCounts := []int{2, 4, 8}
	fractions := []float64{0.05, 0.10, 0.20, 0.40}
	noiseKinds := []policies.Kind{policies.NoRandom, policies.TimeDiceW}

	// The trial list in sweep order; rendering below consumes it in the
	// same order.
	var trials []func() (ablationPoint, error)
	channel := func(cfg covert.Config) {
		trials = append(trials, func() (ablationPoint, error) {
			run, err := covert.Run(cfg)
			if err != nil {
				return ablationPoint{}, err
			}
			return ablationPoint{acc: run.RTAccuracy, capacity: run.Capacity}, nil
		})
	}
	for _, q := range quanta {
		cfg := channelConfig(LightLoad, policies.TimeDiceW, sc)
		cfg.Quantum = q
		channel(cfg)
	}
	for _, srv := range servers {
		cfg := channelConfig(BaseLoad, policies.NoRandom, sc)
		cfg.Servers = srv
		channel(cfg)
	}
	for _, load := range loads {
		for _, kind := range selections {
			channel(channelConfig(load, kind, sc))
		}
	}
	for _, levels := range levelCounts {
		cfg := channelConfig(BaseLoad, policies.NoRandom, sc)
		cfg.Levels = levels
		channel(cfg)
	}
	for _, frac := range fractions {
		for _, kind := range noiseKinds {
			cfg := channelConfig(BaseLoad, kind, sc)
			cfg.NoiseFraction = frac
			channel(cfg)
		}
	}
	for _, q := range quanta {
		trials = append(trials, func() (ablationPoint, error) {
			rate, err := decisionRate(workload.TableILight(), q, sc.Seed)
			return ablationPoint{rate: rate}, err
		})
	}
	pts, err := runner.Map(sc.Parallel, trials, func(_ int, trial func() (ablationPoint, error)) (ablationPoint, error) {
		return trial()
	})
	if err != nil {
		return nil, err
	}
	next := func() ablationPoint {
		p := pts[0]
		pts = pts[1:]
		return p
	}

	res := &AblationResult{}
	for _, q := range quanta {
		p := next()
		res.Quantum = append(res.Quantum, QuantumPoint{Quantum: q, RTAccuracy: p.acc, Capacity: p.capacity})
	}
	for _, srv := range servers {
		p := next()
		res.Servers = append(res.Servers, ServerPoint{Server: srv, RTAccuracy: p.acc, Capacity: p.capacity})
	}
	for _, load := range loads {
		for _, kind := range selections {
			p := next()
			res.Selection = append(res.Selection, SelectionPoint{Policy: kind, Load: load, RTAccuracy: p.acc, Capacity: p.capacity})
		}
	}
	for _, levels := range levelCounts {
		p := next()
		res.Levels = append(res.Levels, LevelPoint{Levels: levels, Accuracy: p.acc, GuessRate: 1 / float64(levels)})
	}
	for _, frac := range fractions {
		nr, td := next(), next()
		res.Noise = append(res.Noise, NoisePoint{
			Fraction:          frac,
			NoRandomAccuracy:  nr.acc,
			TimeDiceWAccuracy: td.acc,
			NoRandomCapacity:  nr.capacity,
			TimeDiceWCapacity: td.capacity,
		})
	}
	for i := range res.Quantum {
		res.Quantum[i].DecisionsPerSec = next().rate
	}

	fprintf(w, "Ablation 1: randomization quantum (MIN_INV_SIZE), light load, TimeDiceW\n")
	fprintf(w, "%-10s %9s %9s %12s\n", "quantum", "RT acc", "capacity", "decisions/s")
	for _, pt := range res.Quantum {
		fprintf(w, "%-10v %8.2f%% %9.3f %12.1f\n", pt.Quantum, 100*pt.RTAccuracy, pt.Capacity, pt.DecisionsPerSec)
	}

	fprintf(w, "\nAblation 2: budget-server policy, base load, NoRandom (channel strength)\n")
	fprintf(w, "%-12s %9s %9s\n", "server", "RT acc", "capacity")
	for _, pt := range res.Servers {
		fprintf(w, "%-12s %8.2f%% %9.3f\n", pt.Server, 100*pt.RTAccuracy, pt.Capacity)
	}

	fprintf(w, "\nAblation 3: uniform vs weighted selection (Theorem 1)\n")
	fprintf(w, "%-10s %-11s %9s %9s\n", "policy", "load", "RT acc", "capacity")
	for _, pt := range res.Selection {
		fprintf(w, "%-10s %-11s %8.2f%% %9.3f\n", pt.Policy, pt.Load, 100*pt.RTAccuracy, pt.Capacity)
	}

	fprintf(w, "\nAblation 4: multi-bit channel (§III-a's multiple response-time levels), NoRandom base load\n")
	fprintf(w, "%-8s %10s %10s\n", "levels", "accuracy", "guess")
	for _, pt := range res.Levels {
		fprintf(w, "%-8d %9.2f%% %9.2f%%\n", pt.Levels, 100*pt.Accuracy, 100*pt.GuessRate)
	}

	fprintf(w, "\nAblation 5: noise sensitivity (noise partitions' timing variation)\n")
	fprintf(w, "%-8s %12s %12s %10s %10s\n", "noise", "NR acc", "TDW acc", "NR cap", "TDW cap")
	for _, pt := range res.Noise {
		fprintf(w, "%-8.2f %11.2f%% %11.2f%% %10.3f %10.3f\n",
			pt.Fraction, 100*pt.NoRandomAccuracy, 100*pt.TimeDiceWAccuracy, pt.NoRandomCapacity, pt.TimeDiceWCapacity)
	}
	return res, nil
}

// decisionRate measures the scheduling-decision rate of TimeDiceW with a
// given quantum on spec over two simulated seconds.
func decisionRate(spec model.SystemSpec, q vtime.Duration, seed uint64) (float64, error) {
	built, err := spec.Build()
	if err != nil {
		return 0, err
	}
	pol, err := policies.Build(policies.TimeDiceW, built.Partitions, policies.Options{Quantum: q})
	if err != nil {
		return 0, err
	}
	sys, err := engine.New(built.Partitions, pol, rng.New(seed))
	if err != nil {
		return 0, err
	}
	const dur = 2 * vtime.Second
	sys.Run(vtime.Time(dur))
	return float64(sys.Counters.Decisions) / dur.Seconds(), nil
}
