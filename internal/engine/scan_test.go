package engine_test

// The engine-layer reference: scan stepping (SetScanStepping) re-derives
// event delivery, idle notification, the horizon, runnability and inversion
// detection from live partition state on every step. These tests pin the
// indexed production path to it, over the generated corpus and on the
// committed golden traces.

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"timedice/internal/check"
	"timedice/internal/core"
	"timedice/internal/engine"
	"timedice/internal/experiments/runner"
	"timedice/internal/gen"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/telemetry"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

// runScan is gen.RunRecorded on the scan-stepping reference.
func runScan(sc gen.Scenario) (*check.Suite, gen.RunStats, error) {
	suite, err := check.NewSuite(sc.Spec, sc.Policy)
	if err != nil {
		return nil, gen.RunStats{}, err
	}
	sys, err := gen.Build(sc)
	if err != nil {
		return nil, gen.RunStats{}, err
	}
	sys.SetScanStepping(true)
	sys.AttachTelemetry(suite)
	sys.RunFor(sc.Horizon)
	sys.FlushTelemetry()
	suite.Finish(sys.Now())
	suite.CheckCounters(&sys.Counters, sc.Horizon)
	st := gen.RunStats{Counters: sys.Counters}
	if p, ok := sys.Policy.(*core.Policy); ok {
		st.Policy = p.Stats()
	}
	return suite, st, nil
}

// comparableCounters projects an engine.Counters to the subset that must be
// bit-identical across stepping paths: everything except ArenaBytesTouched,
// which is path-dependent by design (the scan path visits every partition,
// the indexed path only what changed), and the wall-clock measurements,
// which are host observations. The decision tallies FixpointIters and
// InterferenceTerms are compared: the TimeDice policy reads the engine's
// arenas and runs the same kernel under both paths.
func comparableCounters(c engine.Counters) engine.Counters {
	c.ArenaBytesTouched = 0
	c.PolicyTime = 0
	c.PolicySamples = 0
	c.PolicyLatency = nil
	return c
}

// TestIndexedScanDigestsMatch is the exactness proof for the indexed
// stepping path: over the generated corpus (all policies — the event queue
// is policy-independent), the default indexed stepping and the reference
// O(P) scan must produce byte-identical event streams, identical oracle
// verdicts, identical deterministic engine counters (modulo the deliberately
// path-dependent ones, see comparableCounters), and an identical core.Stats,
// field for field. Any divergence in delivery order, idle notification,
// horizon selection, or the arenas and ready bitset TimeDice decides on
// flips at least one event and shows up as a digest mismatch.
func TestIndexedScanDigestsMatch(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 150
	}
	r := rng.New(0x5ca1ab1e)
	opts := gen.DefaultOptions()
	scs := make([]gen.Scenario, n)
	for i := range scs {
		scs[i] = gen.Generate(r, opts)
	}
	_, err := runner.Map(0, scs, func(i int, sc gen.Scenario) (struct{}, error) {
		indexed, ist, err := gen.RunRecorded(sc, nil)
		if err != nil {
			t.Errorf("scenario %d indexed: %v", i, err)
			return struct{}{}, nil
		}
		scan, sst, err := runScan(sc)
		if err != nil {
			t.Errorf("scenario %d scan: %v", i, err)
			return struct{}{}, nil
		}
		if id, sd := indexed.Digest(), scan.Digest(); id != sd {
			enc, _ := gen.Encode(sc)
			t.Errorf("scenario %d: indexed digest %#x != scan %#x\nscenario: %s", i, id, sd, enc)
		}
		_, iv := indexed.Violations()
		_, sv := scan.Violations()
		if iv != sv {
			t.Errorf("scenario %d: indexed %d violations, scan %d", i, iv, sv)
		}
		if ic, sc2 := comparableCounters(ist.Counters), comparableCounters(sst.Counters); ic != sc2 {
			t.Errorf("scenario %d: counter divergence across stepping paths:\nindexed: %+v\nscan:    %+v", i, ic, sc2)
		}
		if ist.Policy != sst.Policy {
			t.Errorf("scenario %d: policy-stats divergence across stepping paths:\nindexed: %+v\nscan:    %+v", i, ist.Policy, sst.Policy)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGoldenScanStepping pins the stepping-mode equivalence on the golden
// scenario of internal/telemetry: rerunning it (the three-partition demo
// system under TimeDiceW, seed 7, 200 ms) on the scan-stepping reference
// must reproduce every committed golden artifact byte for byte.
func TestGoldenScanStepping(t *testing.T) {
	built, err := workload.ThreePartition().Build()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policies.Build(policies.TimeDiceW, built.Partitions, policies.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := engine.New(built.Partitions, pol, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	sys.SetScanStepping(true)
	rec := telemetry.NewRecorder()
	sys.AttachTelemetry(rec)
	sys.Run(vtime.Time(200 * vtime.Millisecond))
	sys.FlushTelemetry()
	events := rec.Events()
	names := make([]string, len(sys.Partitions))
	for i, p := range sys.Partitions {
		names[i] = p.Name
	}

	var jsonl bytes.Buffer
	sink := telemetry.NewJSONLSink(&jsonl)
	for _, e := range events {
		sink.Event(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := telemetry.WriteChromeTrace(&chrome, events, names); err != nil {
		t.Fatal(err)
	}
	var sum bytes.Buffer
	if err := telemetry.Summarize(events).WriteText(&sum, names); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{
		"three_events.jsonl": jsonl.Bytes(),
		"three_trace.json":   chrome.Bytes(),
		"three_summary.txt":  sum.Bytes(),
	} {
		want, err := os.ReadFile(filepath.Join("..", "telemetry", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: scan stepping drifted from the golden (%d bytes vs %d)", name, len(got), len(want))
		}
	}
}
