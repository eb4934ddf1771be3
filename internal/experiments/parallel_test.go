package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// The parallel runner's contract is that fanning trials across workers
// changes wall-clock time only: every trial seeds its own deterministic
// simulation, results are collected in input order, and rendering happens
// after the fan-in. TestSectionsParallelMatchSequential pins the contract end
// to end for every report section: structured results AND rendered bytes
// must be identical at one and two workers.

// hostCanon holds, for each host-measured section, a function that strips
// the wall-clock parts of its result and its rendered output before
// comparison.
var hostCanon = map[string]func(res any, out string) (any, string){
	"Overhead": overheadCanon,
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

func TestSectionsParallelMatchSequential(t *testing.T) {
	for _, sec := range Sections {
		t.Run(sec.Name, func(t *testing.T) { checkParallelMatchesSequential(t, sec) })
	}
}

func checkParallelMatchesSequential(t *testing.T, sec Section) {
	t.Helper()
	var results [2]any
	var outputs [2]string
	for i, workers := range []int{1, 2} {
		sc := Scale{ProfileWindows: 64, TestWindows: 128, SimSeconds: 2, Seed: 1, Parallel: workers}
		var out bytes.Buffer
		res, err := sec.Run(sc, &out)
		if err != nil {
			t.Fatalf("%s Parallel=%d: %v", sec.Name, workers, err)
		}
		results[i], outputs[i] = res, out.String()
		if sec.HostMeasured {
			results[i], outputs[i] = hostCanon[sec.Name](res, outputs[i])
		}
	}
	if outputs[0] == "" {
		t.Fatalf("%s rendered nothing", sec.Name)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("%s structured results differ between Parallel=1 and Parallel=2", sec.Name)
	}
	if outputs[0] != outputs[1] {
		t.Errorf("%s rendered output differs:\n--- Parallel=1 ---\n%s\n--- Parallel=2 ---\n%s", sec.Name, outputs[0], outputs[1])
	}
}
