package obs_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"timedice/internal/check"
	"timedice/internal/gen"
	"timedice/internal/obs"
	"timedice/internal/rng"
	"timedice/internal/telemetry"
)

// TestBundleRoundTrip is the acceptance check for the post-mortem path: a
// run captured by a whole-run flight recorder dumps a bundle whose
// events.jsonl replays — through the lossless JSONL round trip — to the
// exact event-stream digest the live oracle suite computed.
func TestBundleRoundTrip(t *testing.T) {
	// A real (passing) scenario stands in for a failing one: the bundle
	// machinery is identical, only the reason differs.
	sc := gen.Generate(rng.New(42), gen.DefaultOptions())
	rec := obs.NewRecorder(1 << 20) // window far larger than any run: capture everything
	suite, st, err := gen.RunRecorded(sc, rec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events; widen the test window", rec.Dropped())
	}
	if int64(rec.Total()) != suite.Events() {
		t.Fatalf("recorder saw %d events, suite digested %d — the sinks observed different streams", rec.Total(), suite.Events())
	}

	blob, err := gen.Encode(sc)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(sc.Spec.Partitions))
	for i, p := range sc.Spec.Partitions {
		names[i] = p.Name
	}
	dir, err := obs.WriteBundle(t.TempDir(), obs.BundleInfo{
		Tool:          "obstest",
		Reason:        obs.ReasonOracleViolation,
		Detail:        []string{"synthetic"},
		Seed:          sc.Seed,
		TrialIndex:    7,
		Scenario:      blob,
		Events:        rec.Window(),
		EventsTotal:   rec.Total(),
		EventsDropped: rec.Dropped(),
		Partitions:    names,
		LiveDigest:    suite.Digest(),
		ReplayDigest:  suite.Digest(),
		Counters:      map[string]int64{"decisions": st.Counters.Decisions},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The JSONL replay must hash to the live digest: this is what makes a
	// bundle trustworthy evidence rather than a lossy log.
	jf, err := os.Open(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadJSONL(jf)
	jf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := check.FoldEvents(check.DigestSeed, events); got != suite.Digest() {
		t.Fatalf("replayed bundle digest %#016x != live digest %#016x", got, suite.Digest())
	}

	// meta.json carries the cross-check so it survives without the process.
	var meta struct {
		Version      int      `json:"version"`
		Reason       string   `json:"reason"`
		LiveDigest   string   `json:"liveDigest"`
		ReplayDigest string   `json:"replayDigest"`
		EventsInWin  int      `json:"eventsInWindow"`
		Files        []string `json:"files"`
	}
	mb, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mb, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Version != 1 || meta.Reason != obs.ReasonOracleViolation {
		t.Fatalf("meta header = %+v", meta)
	}
	if meta.LiveDigest != meta.ReplayDigest || meta.LiveDigest == "" {
		t.Fatalf("meta digests live=%q replay=%q, want equal and non-empty", meta.LiveDigest, meta.ReplayDigest)
	}
	if meta.EventsInWin != len(events) {
		t.Fatalf("meta says %d events in window, jsonl has %d", meta.EventsInWin, len(events))
	}

	// Every advertised file exists; the Chrome trace and scenario are valid
	// JSON documents.
	for _, f := range meta.Files {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("advertised bundle file missing: %v", err)
		}
	}
	var anyJSON any
	tb, err := os.ReadFile(filepath.Join(dir, "events.trace.json"))
	if err != nil || json.Unmarshal(tb, &anyJSON) != nil {
		t.Fatalf("events.trace.json unreadable or invalid JSON: %v", err)
	}

	// scenario.json is a working reproducer: decode and re-run it, same
	// digest again.
	sb, err := os.ReadFile(filepath.Join(dir, "scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc2, err := gen.Decode(sb)
	if err != nil {
		t.Fatal(err)
	}
	suite2, err := gen.Run(sc2)
	if err != nil {
		t.Fatal(err)
	}
	if suite2.Digest() != suite.Digest() {
		t.Fatalf("reproducer digest %#016x != live digest %#016x", suite2.Digest(), suite.Digest())
	}
}

// TestBundleWindowedRecorder: with a window smaller than the run, the bundle
// holds the tail and the tallies say exactly how much history was lost.
func TestBundleWindowedRecorder(t *testing.T) {
	sc := gen.Generate(rng.New(3), gen.DefaultOptions())
	rec := obs.NewRecorder(128)
	suite, _, err := gen.RunRecorded(sc, rec)
	if err != nil {
		t.Fatal(err)
	}
	if suite.Events() <= 128 {
		t.Skipf("scenario emitted only %d events; fixture needs a longer run", suite.Events())
	}
	if rec.Len() != 128 {
		t.Fatalf("window holds %d events, want full 128", rec.Len())
	}
	if got := rec.Dropped(); got != rec.Total()-128 {
		t.Fatalf("dropped = %d, want total-128 = %d", got, rec.Total()-128)
	}
	dir, err := obs.WriteBundle(t.TempDir(), obs.BundleInfo{
		Tool: "obstest", Reason: obs.ReasonWorkerPanic, Seed: sc.Seed, TrialIndex: -1,
		Events: rec.Window(), EventsTotal: rec.Total(), EventsDropped: rec.Dropped(),
	})
	if err != nil {
		t.Fatal(err)
	}
	jf, err := os.Open(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadJSONL(jf)
	jf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 128 {
		t.Fatalf("bundle holds %d events, want the 128-event tail", len(events))
	}
	// No scenario was provided, so none may be advertised or written.
	if _, err := os.Stat(filepath.Join(dir, "scenario.json")); !os.IsNotExist(err) {
		t.Fatalf("scenario.json unexpectedly present (err=%v)", err)
	}
}
