package telemetry_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"timedice/internal/engine"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/telemetry"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenRun executes the fixed scenario the golden files were recorded from:
// the three-partition demo system under TimeDiceW, seed 7, 200 ms. Everything
// in the exporters' output derives from virtual time and the seeded RNG, so
// the bytes must be identical on every platform and every run.
func goldenRun(t *testing.T) ([]telemetry.Event, []string, *engine.System) {
	t.Helper()
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
	rec := telemetry.NewRecorder()
	sys.AttachTelemetry(rec)
	sys.Run(vtime.Time(200 * vtime.Millisecond))
	sys.FlushTelemetry()
	names := make([]string, len(sys.Partitions))
	for i, p := range sys.Partitions {
		names[i] = p.Name
	}
	return rec.Events(), names, sys
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/telemetry -run Golden -update` to record)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (%d bytes vs %d); rerun with -update if the change is intended",
			name, len(got), len(want))
	}
}

func TestGoldenJSONL(t *testing.T) {
	events, _, _ := goldenRun(t)
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	for _, e := range events {
		sink.Event(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "three_events.jsonl", buf.Bytes())

	// The golden must round-trip losslessly too.
	back, err := telemetry.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round-trip lost events: %d vs %d", len(back), len(events))
	}
}

func TestGoldenChromeTrace(t *testing.T) {
	events, names, _ := goldenRun(t)
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, events, names); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "three_trace.json", buf.Bytes())
}

func TestGoldenSummaryText(t *testing.T) {
	events, names, _ := goldenRun(t)
	var buf bytes.Buffer
	if err := telemetry.Summarize(events).WriteText(&buf, names); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "three_summary.txt", buf.Bytes())
}

// TestEngineSummaryConsistency is the engine-level contract: for several
// policies and seeds, the roll-up recomputed purely from the event stream
// must agree with the engine's own counters.
func TestEngineSummaryConsistency(t *testing.T) {
	for _, kind := range []policies.Kind{policies.NoRandom, policies.TimeDiceU, policies.TimeDiceW, policies.TDMA} {
		for _, seed := range []uint64{1, 99} {
			built, err := workload.TableIBase().Build()
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
			rec := telemetry.NewRecorder()
			sys.AttachTelemetry(rec)
			sys.Run(vtime.Time(vtime.Second))
			sys.FlushTelemetry()

			sum := telemetry.Summarize(rec.Events())
			c := sys.Counters
			if sum.Decisions != c.Decisions || sum.IdleDecisions != c.IdleDecisions ||
				sum.Switches != c.Switches {
				t.Errorf("%v/seed=%d: decisions %d/%d/%d vs engine %d/%d/%d",
					kind, seed, sum.Decisions, sum.IdleDecisions, sum.Switches,
					c.Decisions, c.IdleDecisions, c.Switches)
			}
			if sum.BusyTime != c.BusyTime || sum.IdleTime != c.IdleTime {
				t.Errorf("%v/seed=%d: busy/idle %v/%v vs engine %v/%v",
					kind, seed, sum.BusyTime, sum.IdleTime, c.BusyTime, c.IdleTime)
			}
			if sum.DeadlineMisses != c.DeadlineMisses {
				t.Errorf("%v/seed=%d: misses %d vs engine %d",
					kind, seed, sum.DeadlineMisses, c.DeadlineMisses)
			}
			if sum.InversionWindows != c.InversionWindows || sum.InversionTime != c.InversionTime {
				t.Errorf("%v/seed=%d: inversions %d/%v vs engine %d/%v",
					kind, seed, sum.InversionWindows, sum.InversionTime,
					c.InversionWindows, c.InversionTime)
			}
		}
	}
}

// TestDisabledTelemetryCountersMatch verifies the cheap counters maintained
// without a sink (deadline misses) agree with a sink-attached run of the
// same seed, and that the sink-gated inversion counters stay zero when
// disabled.
func TestDisabledTelemetryCountersMatch(t *testing.T) {
	runOnce := func(attach bool) *engine.System {
		built, err := workload.TableIBase().Build()
		if err != nil {
			t.Fatal(err)
		}
		pol, err := policies.Build(policies.TimeDiceW, built.Partitions, policies.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := engine.New(built.Partitions, pol, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			sys.AttachTelemetry(telemetry.NewRecorder())
		}
		sys.Run(vtime.Time(vtime.Second))
		sys.FlushTelemetry()
		return sys
	}
	on, off := runOnce(true), runOnce(false)
	if on.Counters.Decisions != off.Counters.Decisions ||
		on.Counters.BusyTime != off.Counters.BusyTime {
		t.Errorf("telemetry changed the schedule: %+v vs %+v", on.Counters, off.Counters)
	}
	if on.Counters.DeadlineMisses != off.Counters.DeadlineMisses {
		t.Errorf("deadline misses diverge: %d with sink, %d without",
			on.Counters.DeadlineMisses, off.Counters.DeadlineMisses)
	}
	if off.Counters.InversionWindows != 0 || off.Counters.InversionTime != 0 {
		t.Errorf("inversion counters are documented sink-gated but ran disabled: %d/%v",
			off.Counters.InversionWindows, off.Counters.InversionTime)
	}
	if on.Counters.InversionWindows == 0 {
		t.Error("sink-attached run recorded no inversion windows under TimeDiceW")
	}
}
