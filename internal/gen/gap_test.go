package gen

import (
	"strings"
	"testing"

	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/server"
)

// TestDifferentialPollingOffsetGap characterizes the one known gap of the
// differential oracle: the analytic TimeDice response-time bound does not
// cover a task in a polling-server partition that sits below local tasks
// released at non-zero offsets. The shortest reproducer found is scenario
// 2797 of `simfuzz -seed 10` (its 2798th drawn scenario seed): TimeDiceW's
// P2/t2.4, below the offset tasks t2.1 and t2.3 in a polling partition,
// observes a 100.832 ms response against a bound of 88.673 ms. The test
// pins that this scenario trips the differential oracle and no other, so a
// campaign that fails with anything else points at a new fault, and it
// fails when the gap is closed (then drop it and the note in HACKING).
func TestDifferentialPollingOffsetGap(t *testing.T) {
	master := rng.New(10)
	var seed uint64
	for range 2798 {
		seed = master.Uint64()
	}
	sc := Generate(rng.New(seed), DefaultOptions())
	if sc.Policy != policies.TimeDiceW {
		t.Fatalf("scenario policy %v, want TimeDiceW", sc.Policy)
	}
	var p2 *model.PartitionSpec
	for i := range sc.Spec.Partitions {
		if sc.Spec.Partitions[i].Name == "P2" {
			p2 = &sc.Spec.Partitions[i]
		}
	}
	if p2 == nil || (p2.Server != server.Polling && p2.Server != 0) {
		t.Fatalf("scenario partition P2 = %+v, want a polling-server partition", p2)
	}
	suite, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	vs, total := suite.Violations()
	if total == 0 {
		t.Fatal("the differential gap no longer fires: the bound now covers offset tasks under a polling server; drop this test and its HACKING note")
	}
	for _, v := range vs {
		if v.Oracle != "differential" || !strings.Contains(v.Msg, "P2/t2.4") {
			t.Errorf("unexpected violation %v; only the differential oracle may fire, on P2/t2.4", v)
		}
	}
}
