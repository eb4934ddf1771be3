package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timedice/internal/telemetry"
	"timedice/internal/vtime"
)

// TestRoundTrip is the acceptance test for the trace pipeline: a seeded
// Table-I-base run must produce a JSONL event log whose recomputed summary
// matches the engine's own counters, and a Chrome trace that is valid JSON
// with one named track per partition.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	res, err := executeTrace(traceConfig{
		Scenario: "tableI",
		Policy:   "TimeDiceW",
		Dur:      2 * vtime.Second,
		Seed:     42,
		OutDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(res.EventsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(events) != len(res.Events) {
		t.Fatalf("JSONL has %d events, recorder saw %d", len(events), len(res.Events))
	}
	sum := telemetry.Summarize(events)

	c := res.System.Counters
	if sum.Decisions != c.Decisions {
		t.Errorf("decisions: summary %d, engine %d", sum.Decisions, c.Decisions)
	}
	if sum.IdleDecisions != c.IdleDecisions {
		t.Errorf("idle decisions: summary %d, engine %d", sum.IdleDecisions, c.IdleDecisions)
	}
	if sum.Switches != c.Switches {
		t.Errorf("switches: summary %d, engine %d", sum.Switches, c.Switches)
	}
	if sum.BusyTime != c.BusyTime {
		t.Errorf("busy time: summary %v, engine %v", sum.BusyTime, c.BusyTime)
	}
	if sum.IdleTime != c.IdleTime {
		t.Errorf("idle time: summary %v, engine %v", sum.IdleTime, c.IdleTime)
	}
	if sum.DeadlineMisses != c.DeadlineMisses {
		t.Errorf("deadline misses: summary %d, engine %d", sum.DeadlineMisses, c.DeadlineMisses)
	}
	if sum.InversionWindows != c.InversionWindows {
		t.Errorf("inversion windows: summary %d, engine %d", sum.InversionWindows, c.InversionWindows)
	}
	if sum.InversionTime != c.InversionTime {
		t.Errorf("inversion time: summary %v, engine %v", sum.InversionTime, c.InversionTime)
	}
	if sum.InversionWindows == 0 {
		t.Error("expected the randomizing policy to produce inversion windows")
	}

	checkChromeTrace(t, res.TracePath, res.PartitionNames)
}

// checkChromeTrace parses the trace with the standard JSON decoder and
// verifies the per-partition thread-name metadata the viewers key tracks on.
func checkChromeTrace(t *testing.T, path string, partitions []string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Tid  int    `json:"tid"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace.json is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	tracks := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			tracks[ev.Tid] = ev.Args.Name
		}
	}
	for i, name := range partitions {
		if got := tracks[i+1]; got != name {
			t.Errorf("track tid=%d named %q, want partition %q", i+1, got, name)
		}
	}
	if got := tracks[len(partitions)+1]; got != "policy" {
		t.Errorf("policy track named %q", got)
	}
	if got := tracks[len(partitions)+2]; got != "inversions" {
		t.Errorf("inversions track named %q", got)
	}
}

// TestScenarios ensures every named scenario builds and runs under every
// accepted policy name for a short horizon.
func TestScenarios(t *testing.T) {
	for _, sc := range []string{"tableI", "tableI-light", "covert", "car", "three"} {
		for _, pol := range []string{"NoRandom", "TimeDiceU", "TimeDiceW", "TDMA"} {
			res, err := executeTrace(traceConfig{
				Scenario: sc,
				Policy:   pol,
				Dur:      200 * vtime.Millisecond,
				Seed:     1,
				OutDir:   t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", sc, pol, err)
			}
			if res.Summary.Decisions == 0 {
				t.Errorf("%s/%s: no decisions recorded", sc, pol)
			}
		}
	}
}

// TestCovertSenderModulates checks the covert scenario actually alternates
// P2's consumption between monitoring windows — without modulation there is
// no channel to trace.
func TestCovertSenderModulates(t *testing.T) {
	res, err := executeTrace(traceConfig{
		Scenario: "covert",
		Policy:   "NoRandom",
		Dur:      1200 * vtime.Millisecond,
		Seed:     1,
		OutDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	window := vtime.Duration(150 * vtime.Millisecond)
	busy := make(map[int64]vtime.Duration)
	for _, ev := range res.Events {
		if ev.Kind == telemetry.KindSlice && ev.Partition == 1 {
			busy[int64(ev.Time)/int64(window)] += ev.Dur
		}
	}
	// High windows are capped by P2's server budget (~14.4 ms of supply per
	// 150 ms window), so the low/high split sits well below that.
	var lo, hi int
	for w := int64(0); w < int64(1200*vtime.Millisecond)/int64(window); w++ {
		if busy[w] < window/30 {
			lo++
		} else {
			hi++
		}
	}
	if lo == 0 || hi == 0 {
		t.Errorf("covert sender did not modulate: %d low windows, %d high windows", lo, hi)
	}
}

// TestSummaryMode runs the CLI -summary path over a freshly written log.
func TestSummaryMode(t *testing.T) {
	dir := t.TempDir()
	if _, err := executeTrace(traceConfig{
		Scenario: "three", Policy: "NoRandom",
		Dur: 100 * vtime.Millisecond, Seed: 3, OutDir: dir,
	}); err != nil {
		t.Fatal(err)
	}
	out, err := os.CreateTemp(dir, "summary")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if err := run([]string{"-summary", filepath.Join(dir, "events.jsonl")}, out); err != nil {
		t.Fatal(err)
	}
	if _, err := out.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf, []byte("deadline misses")) {
		t.Errorf("summary output missing statistics:\n%s", buf)
	}
}

// TestBadInputs covers the error paths.
func TestBadInputs(t *testing.T) {
	if _, _, err := buildScenario("nope"); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := parsePolicy("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestNonPositiveDurRejected pins that -dur 0 and a negative -dur fail
// without writing any artifact.
func TestNonPositiveDurRejected(t *testing.T) {
	for _, d := range []string{"0", "-1s", "500ns"} {
		dir := filepath.Join(t.TempDir(), "out")
		err := run([]string{"-scenario", "three", "-dur", d, "-out", dir}, os.Stdout)
		if err == nil || !strings.Contains(err.Error(), "-dur") {
			t.Errorf("-dur %s: err = %v, want a -dur error", d, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("-dur %s: output directory created (stat: %v)", d, err)
		}
	}
}

// TestStrayArgumentsRejected: flag parsing stops at the first non-flag
// word, so a stray word would silently drop every flag after it. Any
// positional argument fails before an artifact is written.
func TestStrayArgumentsRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	err := run([]string{"-scenario", "three", "-dur", "0", "stray", "-out", dir}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), `unexpected arguments ["stray" "-out"`) {
		t.Fatalf("err = %v, want an unexpected-arguments error", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("output directory created (stat: %v)", err)
	}
}
