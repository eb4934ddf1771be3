package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"timedice/internal/experiments"
	"timedice/internal/vtime"
)

// testSize runs every workload through the benchmark's own code at a size
// that finishes in seconds.
var testSize = size{
	DenseSetups:  2,
	SparseSetups: 2,
	FuzzSetups:   2,
	PaperSetups:  2,

	DenseP:            64,
	DenseWarm:         200 * vtime.Millisecond,
	DenseRound:        100 * vtime.Millisecond,
	DenseDigestRounds: 2,

	SparseP:            256,
	SparseWarm:         5 * vtime.Second,
	SparseRound:        vtime.Second,
	SparseDigestRounds: 2,

	FuzzWarm:   32,
	FuzzBatch:  32,
	FuzzDigest: 96,

	Paper: experiments.Scale{ProfileWindows: 40, TestWindows: 80, SimSeconds: 2},
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	blob, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloads runs every workload untraced and traced at seed 2 and checks
// that each run passes its correctness checks, emits exactly the metrics
// BENCHMARK.json declares for its kind with the declared units, and that the
// traced run reproduces the untraced run's digest.
func TestWorkloads(t *testing.T) {
	wantE2E, wantLayer := declared(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var digests [2]string
			for i, trace := range []bool{false, true} {
				res, err := runOne(wl.name, testSize, 2, 0, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct() {
					t.Errorf("trace=%v: correctness checks failed: %+v (failed %d of %d)", trace, res.checks, res.failed, res.attempted)
				}
				if res.attempted < 1 {
					t.Errorf("trace=%v: attempted = %d, want at least 1", trace, res.attempted)
				}
				digests[i] = res.digest

				var buf bytes.Buffer
				if err := emit(&buf, res, true); err != nil {
					t.Fatal(err)
				}
				got := map[string]string{}
				lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
				for _, line := range lines[:len(lines)-1] {
					var rec record
					if err := json.Unmarshal(line, &rec); err != nil {
						t.Fatal(err)
					}
					if rec.Name != "" {
						got[rec.Name] = rec.Unit
					}
				}
				var sum summary
				if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
					t.Fatalf("last line is not the summary: %v", err)
				}
				want := wantE2E
				if trace {
					want = wantLayer
				}
				sameMetrics(t, "records", got, want)
				fromSummary := map[string]string{}
				for name, v := range sum.Metrics {
					fromSummary[name] = v.Unit
				}
				sameMetrics(t, "summary", fromSummary, want)
			}
			if digests[0] == "" || digests[0] != digests[1] {
				t.Errorf("untraced digest %q, traced digest %q: want equal and non-empty", digests[0], digests[1])
			}
		})
	}
}

func sameMetrics(t *testing.T, where string, got, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: declared metric %s missing", where, name)
		} else if g != unit {
			t.Errorf("%s: metric %s has unit %q, declared %q", where, name, g, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared", where, name)
		}
	}
}

// TestMeasureHonoursSeconds checks that a run keeps measuring until its
// time is up, not just until the digest prefix has run.
func TestMeasureHonoursSeconds(t *testing.T) {
	start := time.Now()
	if _, err := runOne("sparse-P16384", testSize, 1, 300*time.Millisecond, false); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 300*time.Millisecond {
		t.Errorf("run took %v, want at least the 300ms asked for", d)
	}
}
