package experiments

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// The parallel runner's contract is that fanning trials across workers
// changes wall-clock time only: every trial seeds its own deterministic
// simulation, results are collected in input order, and rendering happens
// after the fan-in. checkParallelMatchesSequential pins the contract end to
// end for one report section: structured results AND rendered bytes must be
// identical at one and two workers. TestFig12ParallelMatchesSequential and
// TestUtilizationSweepParallelMatchesSequential run it for their sections;
// TestSectionsParallelMatchSequential runs it for every other section.

// parallelSection is one report section under the determinism test. canon,
// when set, strips the host-measured parts of a result and its rendered
// output before comparison.
type parallelSection struct {
	name  string
	run   func(Scale, io.Writer) (any, error)
	canon func(res any, out string) (any, string)
}

func sectionOf[R any](name string, fn func(Scale, io.Writer) (R, error)) parallelSection {
	return parallelSection{name: name, run: func(sc Scale, w io.Writer) (any, error) { return fn(sc, w) }}
}

// parallelSections lists every section cmd/report regenerates, in its order.
func parallelSections() []parallelSection {
	overhead := sectionOf("Overhead", Overhead)
	overhead.canon = overheadCanon
	return []parallelSection{
		sectionOf("Fig04", Fig04),
		sectionOf("Fig06", Fig06),
		sectionOf("Fig12", Fig12),
		sectionOf("Fig13", Fig13),
		sectionOf("Fig14", Fig14),
		sectionOf("Fig15", Fig15),
		sectionOf("Fig16", Fig16),
		sectionOf("Table02", Table02),
		sectionOf("Table03", Table03),
		overhead,
		sectionOf("Fig18", Fig18),
		sectionOf("CarChannel", CarChannel),
		sectionOf("Ablation", Ablation),
		sectionOf("Rate", Rate),
		sectionOf("Naive", Naive),
		sectionOf("Randomness", Randomness),
		sectionOf("UtilizationSweep", UtilizationSweep),
		sectionOf("MultiPairReport", MultiPairReport),
		sectionOf("ReceiverZoo", ReceiverZoo),
		sectionOf("Detection", Detection),
		sectionOf("Campaign", Campaign),
	}
}

// overheadCanon drops Overhead's wall-clock measurements: the Table IV
// latency percentiles and the Fig. 17 policy time. Its Table V rates are
// simulated and stay in the comparison.
func overheadCanon(res any, out string) (any, string) {
	r := *res.(*OverheadResult)
	r.Rows = append([]OverheadRow(nil), r.Rows...)
	for i := range r.Rows {
		row := &r.Rows[i]
		row.P25, row.P50, row.P75, row.P99, row.Max = 0, 0, 0, 0, 0
		row.PolicyMicrosPerSec = 0
	}
	start, end := strings.Index(out, "Table V:"), strings.Index(out, "Fig 17:")
	if start < 0 || end < start {
		return &r, out
	}
	return &r, out[start:end]
}

// ownTest names the sections that keep a test of their own below, so the
// table test does not run them twice.
var ownTest = map[string]bool{"Fig12": true, "UtilizationSweep": true}

func TestSectionsParallelMatchSequential(t *testing.T) {
	for _, sec := range parallelSections() {
		if ownTest[sec.name] {
			continue
		}
		t.Run(sec.name, func(t *testing.T) { checkParallelMatchesSequential(t, sec) })
	}
}

func TestFig12ParallelMatchesSequential(t *testing.T) {
	checkParallelMatchesSequential(t, sectionOf("Fig12", Fig12))
}

func TestUtilizationSweepParallelMatchesSequential(t *testing.T) {
	checkParallelMatchesSequential(t, sectionOf("UtilizationSweep", UtilizationSweep))
}

func checkParallelMatchesSequential(t *testing.T, sec parallelSection) {
	t.Helper()
	var results [2]any
	var outputs [2]string
	for i, workers := range []int{1, 2} {
		sc := Scale{ProfileWindows: 64, TestWindows: 128, SimSeconds: 2, Seed: 1, Parallel: workers}
		var out bytes.Buffer
		res, err := sec.run(sc, &out)
		if err != nil {
			t.Fatalf("%s Parallel=%d: %v", sec.name, workers, err)
		}
		results[i], outputs[i] = res, out.String()
		if sec.canon != nil {
			results[i], outputs[i] = sec.canon(res, outputs[i])
		}
	}
	if outputs[0] == "" {
		t.Fatalf("%s rendered nothing", sec.name)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("%s structured results differ between Parallel=1 and Parallel=2", sec.name)
	}
	if outputs[0] != outputs[1] {
		t.Errorf("%s rendered output differs:\n--- Parallel=1 ---\n%s\n--- Parallel=2 ---\n%s", sec.name, outputs[0], outputs[1])
	}
}
