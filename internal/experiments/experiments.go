// Package experiments contains one harness per table and figure of the
// paper's evaluation (§III feasibility and §V). Each harness builds the
// right workload, runs the simulator, and returns a structured result whose
// String/Print form mirrors the rows or series the paper reports. The bench
// targets in the repository root and the cmd/ binaries are thin wrappers
// around these harnesses.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"timedice/internal/covert"
	"timedice/internal/ml"
	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/workload"
)

// Scale controls experiment sizes so the same harness serves quick tests,
// benches, and full paper-scale runs.
type Scale struct {
	// ProfileWindows and TestWindows size covert-channel phases.
	ProfileWindows, TestWindows int
	// SimSeconds is the simulated duration of responsiveness/overhead runs.
	SimSeconds int
	Seed       uint64
	// Parallel is the number of worker goroutines independent trials fan out
	// across: 0 (the default) uses one worker per available CPU, 1 forces a
	// sequential run, n > 1 uses exactly n workers. Every trial is a
	// self-contained deterministic simulation, so the setting changes
	// wall-clock time only — results are identical at any parallelism.
	Parallel int
	// Stream switches the experiments that aggregate many samples or trials
	// (Fig. 16 responsiveness spreads, the Campaign seed sweep) to
	// constant-memory streaming aggregation: per-task/per-worker quantile
	// sketches (stats.Sketch) instead of buffered samples. Off by default —
	// the exact path remains authoritative for paper tables; streamed
	// quantiles carry the sketch's documented ≤1% relative error once a
	// series outgrows the sketch's exact small-N buffer.
	Stream bool
}

// Full is the paper-scale configuration (10,000 test samples; long runs).
func Full() Scale {
	return Scale{ProfileWindows: 2000, TestWindows: 10000, SimSeconds: 600, Seed: 1}
}

// Quick is a reduced scale for tests and benches: same shapes, smaller n.
func Quick() Scale {
	return Scale{ProfileWindows: 300, TestWindows: 600, SimSeconds: 20, Seed: 1}
}

// ScaleByName returns Quick or Full for the -scale flag value "quick" or
// "full", case-insensitively, and an error for anything else.
func ScaleByName(name string) (Scale, error) {
	switch strings.ToLower(name) {
	case "quick":
		return Quick(), nil
	case "full":
		return Full(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (want quick or full)", name)
}

func (s Scale) withDefaults() Scale {
	if s.ProfileWindows <= 0 {
		s.ProfileWindows = 300
	}
	if s.TestWindows <= 0 {
		s.TestWindows = 600
	}
	if s.SimSeconds <= 0 {
		s.SimSeconds = 20
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Load selects the two system-load configurations of the feasibility test.
type Load int

const (
	// BaseLoad is Table I with α=16% (80% total partition utilization).
	BaseLoad Load = iota + 1
	// LightLoad halves budgets and execution times (40% utilization).
	LightLoad
)

// String names the load as the paper does.
func (l Load) String() string {
	if l == LightLoad {
		return "Light load"
	}
	return "Base load"
}

// Spec returns the Table I variant for the load.
func (l Load) Spec() model.SystemSpec {
	if l == LightLoad {
		return workload.TableILight()
	}
	return workload.TableIBase()
}

// channelConfig assembles the standard feasibility-test channel on Table I:
// sender Π2, receiver Π4, 150 ms monitoring windows, M = 150.
func channelConfig(load Load, kind policies.Kind, sc Scale) covert.Config {
	return covert.Config{
		Spec:           load.Spec(),
		Sender:         1, // Π2
		Receiver:       3, // Π4
		ProfileWindows: sc.ProfileWindows,
		TestWindows:    sc.TestWindows,
		Policy:         kind,
		Seed:           sc.Seed,
	}
}

// defaultLearner is the paper's execution-vector classifier.
func defaultLearner() ml.Trainer { return ml.SVM{} }

func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
