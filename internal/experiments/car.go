package experiments

import (
	"io"

	"timedice/internal/covert"
	"timedice/internal/experiments/runner"
	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

// carSpec returns the Fig. 5 self-driving-car platform.
func carSpec() model.SystemSpec { return workload.Car() }

// CarChannelResult reproduces the §III-e motivating scenario and its §V-B1
// follow-up: the path-planning partition (Π3) leaks the vehicle's precise
// location to the data-logging partition (Π4) over the covert channel;
// enabling TimeDice collapses the accuracy (95.23% → 56.30% in the paper).
type CarChannelResult struct {
	NoRandomAccuracy float64
	TimeDiceAccuracy float64
	NoRandomCapacity float64
	TimeDiceCapacity float64
}

// CarChannel runs the learning-based channel on the car platform under both
// schedulers. The sender task uses a 50 ms period as in the paper. The two
// runs fan out across sc.Parallel workers; each reduces its covert.Result to
// the learner's accuracy and the capacity before fan-in.
func CarChannel(sc Scale, w io.Writer) (*CarChannelResult, error) {
	sc = sc.withDefaults()
	type outcome struct{ acc, capacity float64 }
	outs, err := runner.Map(sc.Parallel, []policies.Kind{policies.NoRandom, policies.TimeDiceW},
		func(_ int, kind policies.Kind) (outcome, error) {
			cfg := covert.Config{
				Spec:     carSpec(),
				Sender:   2, // Π3 path planning
				Receiver: 3, // Π4 data logging
				// Receiver window 150 ms = 3·T4; sender period 50 ms (§III-e).
				Window:         vtime.MS(150),
				SenderPeriod:   vtime.MS(50),
				ProfileWindows: sc.ProfileWindows,
				TestWindows:    sc.TestWindows,
				Policy:         kind,
				Seed:           sc.Seed,
				// The car applications run their natural workloads; they are
				// not adversarially noisy like the synthetic feasibility
				// test, so their timing variation is small (§III-e achieved
				// 95.23%).
				NoiseFraction: 0.05,
			}
			learner := defaultLearner()
			run, err := covert.Run(cfg, learner)
			if err != nil {
				return outcome{}, err
			}
			return outcome{run.VecAccuracy[learner.Name()], run.Capacity}, nil
		})
	if err != nil {
		return nil, err
	}
	nr, td := outs[0], outs[1]
	res := &CarChannelResult{
		NoRandomAccuracy: nr.acc,
		TimeDiceAccuracy: td.acc,
		NoRandomCapacity: nr.capacity,
		TimeDiceCapacity: td.capacity,
	}
	fprintf(w, "Car platform covert channel (planner Π3 → logger Π4, learning-based):\n")
	fprintf(w, "NoRandom: accuracy %.2f%%, capacity %.3f b/window\n", 100*res.NoRandomAccuracy, res.NoRandomCapacity)
	fprintf(w, "TimeDice: accuracy %.2f%%, capacity %.3f b/window\n", 100*res.TimeDiceAccuracy, res.TimeDiceCapacity)
	return res, nil
}
