package engine_test

import (
	"bytes"
	"fmt"
	"testing"

	"timedice/internal/engine"
	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/telemetry"
	"timedice/internal/vtime"
)

// equalPart builds one partition spec with budget b, period p, and one task
// at the same rate, so releases and replenishments of same-parameter
// partitions collide on the timeline.
func equalPart(name string, b, p vtime.Duration) model.PartitionSpec {
	return model.PartitionSpec{
		Name: name, Budget: b, Period: p,
		Tasks: []model.TaskSpec{{Name: name + ".t", Period: p, WCET: b}},
	}
}

// tieSpecs are workloads constructed so per-partition next-event times
// collide: the delivery order at an equal timestamp is the visible
// tie-break. Every spec is run under both stepping modes and the telemetry
// streams must match byte for byte.
var tieSpecs = []struct {
	name string
	spec model.SystemSpec
}{
	{"all-equal", model.SystemSpec{Name: "all-equal", Partitions: []model.PartitionSpec{
		equalPart("P0", vtime.MS(1), vtime.MS(8)),
		equalPart("P1", vtime.MS(1), vtime.MS(8)),
		equalPart("P2", vtime.MS(1), vtime.MS(8)),
		equalPart("P3", vtime.MS(1), vtime.MS(8)),
	}}},
	{"pairwise", model.SystemSpec{Name: "pairwise", Partitions: []model.PartitionSpec{
		equalPart("A0", vtime.MS(1), vtime.MS(10)),
		equalPart("A1", vtime.MS(1), vtime.MS(10)),
		equalPart("B0", vtime.MS(2), vtime.MS(20)),
		equalPart("B1", vtime.MS(2), vtime.MS(20)),
	}}},
	{"harmonic", model.SystemSpec{Name: "harmonic", Partitions: []model.PartitionSpec{
		equalPart("H0", vtime.MS(1), vtime.MS(5)),
		equalPart("H1", vtime.MS(1), vtime.MS(10)),
		equalPart("H2", vtime.MS(2), vtime.MS(20)),
	}}},
}

// tieRun executes spec under kind for dur and returns the JSONL-serialized
// telemetry stream.
func tieRun(t *testing.T, spec model.SystemSpec, kind policies.Kind, seed uint64, dur vtime.Duration, scan bool) []byte {
	t.Helper()
	built, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	pol, err := policies.Build(kind, built.Partitions, policies.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := engine.New(built.Partitions, pol, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	sys.SetScanStepping(scan)
	rec := telemetry.NewRecorder()
	sys.AttachTelemetry(rec)
	sys.Run(vtime.Time(dur))
	sys.FlushTelemetry()
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	for _, e := range rec.Events() {
		sink.Event(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTieBreakDeterminism pins the equal-timestamp contract: when several
// partitions have local events due at the same instant, both stepping modes
// deliver them in ascending partition index, so the full telemetry streams
// are byte-identical. The workloads are built to collide (equal and harmonic
// periods); any heap-order leak in the indexed path would reorder Release or
// Depleted events and break the comparison.
func TestTieBreakDeterminism(t *testing.T) {
	for _, tc := range tieSpecs {
		for _, kind := range []policies.Kind{policies.NoRandom, policies.TimeDiceW} {
			t.Run(fmt.Sprintf("%s/%s", tc.name, kind), func(t *testing.T) {
				indexed := tieRun(t, tc.spec, kind, 7, vtime.MS(200), false)
				scan := tieRun(t, tc.spec, kind, 7, vtime.MS(200), true)
				if !bytes.Equal(indexed, scan) {
					t.Errorf("telemetry streams diverge: indexed %d bytes, scan %d bytes",
						len(indexed), len(scan))
				}
				if len(indexed) == 0 {
					t.Error("empty telemetry stream")
				}
			})
		}
	}
}

// TestTieBreakOrderPinned fixes the visible order itself, not just
// mode-equivalence: four identical partitions all release at t=0 and every
// 8 ms after, and under fixed priority the engine must run them in ascending
// partition index each round. This is the order the scan path has always
// produced; the indexed path sorts its due set to preserve it.
func TestTieBreakOrderPinned(t *testing.T) {
	for _, scan := range []bool{false, true} {
		built, err := tieSpecs[0].spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		pol, err := policies.Build(policies.NoRandom, built.Partitions, policies.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := engine.New(built.Partitions, pol, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		sys.SetScanStepping(scan)
		var segs []engine.Segment
		sys.TraceFn = func(s engine.Segment) { segs = append(segs, s) }
		sys.Run(vtime.Time(vtime.MS(16)))

		want := []engine.Segment{
			{Start: 0, End: vtime.Time(vtime.MS(1)), Partition: 0},
			{Start: vtime.Time(vtime.MS(1)), End: vtime.Time(vtime.MS(2)), Partition: 1},
			{Start: vtime.Time(vtime.MS(2)), End: vtime.Time(vtime.MS(3)), Partition: 2},
			{Start: vtime.Time(vtime.MS(3)), End: vtime.Time(vtime.MS(4)), Partition: 3},
			{Start: vtime.Time(vtime.MS(4)), End: vtime.Time(vtime.MS(8)), Partition: -1},
			{Start: vtime.Time(vtime.MS(8)), End: vtime.Time(vtime.MS(9)), Partition: 0},
			{Start: vtime.Time(vtime.MS(9)), End: vtime.Time(vtime.MS(10)), Partition: 1},
			{Start: vtime.Time(vtime.MS(10)), End: vtime.Time(vtime.MS(11)), Partition: 2},
			{Start: vtime.Time(vtime.MS(11)), End: vtime.Time(vtime.MS(12)), Partition: 3},
			{Start: vtime.Time(vtime.MS(12)), End: vtime.Time(vtime.MS(16)), Partition: -1},
		}
		if len(segs) != len(want) {
			t.Fatalf("scan=%v: %d segments %v, want %d", scan, len(segs), segs, len(want))
		}
		for i, w := range want {
			if segs[i] != w {
				t.Errorf("scan=%v: segment %d = %+v, want %+v", scan, i, segs[i], w)
			}
		}
	}
}
