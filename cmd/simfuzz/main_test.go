package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timedice/internal/engine"
)

// TestCampaignParallelInvariance is the CLI's determinism contract: the full
// report — counts, event totals, combined digest — is byte-identical
// whatever the worker count, because scenario seeds are pre-drawn and the
// fold runs in index order.
func TestCampaignParallelInvariance(t *testing.T) {
	base := config{scenarios: 150, seed: 5, parallel: 1, shrink: false}
	var seq, par bytes.Buffer
	if code := campaign(base, &seq); code != 0 {
		t.Fatalf("sequential campaign exited %d:\n%s", code, seq.String())
	}
	cfg4 := base
	cfg4.parallel = 4
	if code := campaign(cfg4, &par); code != 0 {
		t.Fatalf("parallel campaign exited %d:\n%s", code, par.String())
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("-parallel 1 and -parallel 4 outputs differ:\n--- parallel 1\n%s--- parallel 4\n%s", seq.String(), par.String())
	}
}

// TestCampaignRepeatable: the same seed reproduces the same report across
// invocations in one process (fresh rng state each call).
func TestCampaignRepeatable(t *testing.T) {
	cfg := config{scenarios: 60, seed: 9, parallel: 2, shrink: false}
	var a, b bytes.Buffer
	if code := campaign(cfg, &a); code != 0 {
		t.Fatalf("campaign exited %d:\n%s", code, a.String())
	}
	if code := campaign(cfg, &b); code != 0 {
		t.Fatalf("campaign exited %d:\n%s", code, b.String())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two runs of the same campaign differ:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestCampaignSeedSensitivity: different master seeds draw different
// campaigns (digest must move).
func TestCampaignSeedSensitivity(t *testing.T) {
	var a, b bytes.Buffer
	campaign(config{scenarios: 30, seed: 1, parallel: 2}, &a)
	campaign(config{scenarios: 30, seed: 2, parallel: 2}, &b)
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("campaigns with different seeds produced identical reports")
	}
}

// TestNegativeScenariosRejected: a negative -scenarios is a setup error
// (exit 2 with a message), not a makeslice panic.
func TestNegativeScenariosRejected(t *testing.T) {
	var out bytes.Buffer
	if code := campaign(config{scenarios: -5, seed: 1, parallel: 1}, &out); code != 2 {
		t.Fatalf("campaign exited %d, want 2:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "-scenarios") {
		t.Fatalf("rejection does not name the flag:\n%s", out.String())
	}
}

// TestForcedViolationBundle drives the post-mortem path end to end: a forced
// oracle violation makes the campaign exit 1 and dump a bundle whose
// replayed event digest equals the live run's — the determinism cross-check
// recorded in meta.json.
func TestForcedViolationBundle(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		scenarios:     5,
		seed:          5,
		parallel:      2,
		shrink:        false,
		bundleDir:     dir,
		injectFailure: 3, // trial index 2 reports a synthetic violation
	}
	var out bytes.Buffer
	if code := campaign(cfg, &out); code != 1 {
		t.Fatalf("campaign exited %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "first failing scenario 2") {
		t.Fatalf("report does not blame trial 2:\n%s", out.String())
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bundle string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "postmortem-simfuzz-") && strings.HasSuffix(e.Name(), "-oracle-violation") {
			bundle = filepath.Join(dir, e.Name())
		}
	}
	if bundle == "" {
		t.Fatalf("no oracle-violation bundle under %s (found %v)", dir, entries)
	}

	var meta struct {
		Reason       string           `json:"reason"`
		TrialIndex   int              `json:"trialIndex"`
		LiveDigest   string           `json:"liveDigest"`
		ReplayDigest string           `json:"replayDigest"`
		Detail       []string         `json:"detail"`
		Files        []string         `json:"files"`
		SnapshotTime int64            `json:"snapshotTimeMicros"`
		PrefixDigest string           `json:"prefixDigest"`
		Counters     map[string]int64 `json:"counters"`
	}
	mb, err := os.ReadFile(filepath.Join(bundle, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mb, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.TrialIndex != 2 {
		t.Fatalf("bundle blames trial %d, want 2", meta.TrialIndex)
	}
	if meta.LiveDigest == "" || meta.LiveDigest != meta.ReplayDigest {
		t.Fatalf("replay digest %q != live digest %q — the re-run diverged from the recorded trial", meta.ReplayDigest, meta.LiveDigest)
	}
	if len(meta.Detail) == 0 || !strings.Contains(meta.Detail[0], "injected") {
		t.Fatalf("detail = %v, want the forced violation message", meta.Detail)
	}
	// The reproducer, event dumps, and pre-violation snapshot ride along.
	for _, f := range []string{"scenario.json", "events.jsonl", "events.trace.json", "state.snapshot"} {
		if _, err := os.Stat(filepath.Join(bundle, f)); err != nil {
			t.Fatalf("bundle file missing: %v", err)
		}
	}
	if meta.PrefixDigest == "" {
		t.Fatal("meta.json lacks prefixDigest for the embedded snapshot")
	}
	// Every State and Work counter row rides along, and nothing else.
	want := 0
	for _, row := range engine.CounterRows {
		if _, ok := meta.Counters[row.Name]; ok != (row.Class != engine.Host) {
			t.Errorf("meta.json counters: row %q present=%v, want %v", row.Name, ok, !ok)
		}
		if row.Class != engine.Host {
			want++
		}
	}
	if len(meta.Counters) != want {
		t.Errorf("meta.json has %d counters %v, want %d", len(meta.Counters), meta.Counters, want)
	}
}

// TestBundleDirDisabled: without a bundle dir (empty -runs), a failing
// campaign still reports but writes nothing.
func TestBundleDirDisabled(t *testing.T) {
	var out bytes.Buffer
	cfg := config{scenarios: 3, seed: 5, parallel: 1, injectFailure: 1}
	if code := campaign(cfg, &out); code != 1 {
		t.Fatalf("campaign exited %d, want 1", code)
	}
}

// TestCheckpointResume is the ISSUE acceptance pin for -checkpoint /
// -resume-from: interrupt a campaign mid-flight, resume it from the
// checkpoint file, and require the resumed report to be byte-identical to
// the uninterrupted run's.
func TestCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.checkpoint")
	base := config{scenarios: 40, seed: 7, parallel: 2, shrink: false}

	var want bytes.Buffer
	if code := campaign(base, &want); code != 0 {
		t.Fatalf("uninterrupted campaign exited %d:\n%s", code, want.String())
	}

	interrupted := base
	interrupted.checkpoint = ckpt
	interrupted.checkpointEvery = 10
	interrupted.stopAfter = 15
	var mid bytes.Buffer
	if code := campaign(interrupted, &mid); code != 0 {
		t.Fatalf("interrupted campaign exited %d:\n%s", code, mid.String())
	}
	if mid.Len() != 0 {
		t.Fatalf("interrupted campaign wrote to the report stream:\n%s", mid.String())
	}
	cs, err := loadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Next < 15 || cs.Next >= base.scenarios {
		t.Fatalf("checkpoint folded %d trials, want in [15, %d)", cs.Next, base.scenarios)
	}

	resumed := interrupted
	resumed.stopAfter = 0
	resumed.resumeFrom = ckpt
	var got bytes.Buffer
	if code := campaign(resumed, &got); code != 0 {
		t.Fatalf("resumed campaign exited %d:\n%s", code, got.String())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- uninterrupted\n%s--- resumed\n%s", want.String(), got.String())
	}
	// The final checkpoint covers the whole campaign.
	if cs, err := loadCheckpoint(ckpt); err != nil || cs.Next != base.scenarios {
		t.Fatalf("final checkpoint Next = %d (err %v), want %d", cs.Next, err, base.scenarios)
	}
}

// TestCheckpointResumeMismatch: a checkpoint from a different campaign
// (other seed / scenario count / explore setting) must be refused, exit 2.
func TestCheckpointResumeMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "campaign.checkpoint")
	cfg := config{scenarios: 12, seed: 7, parallel: 1, shrink: false, checkpoint: ckpt, checkpointEvery: 4, stopAfter: 4}
	var out bytes.Buffer
	if code := campaign(cfg, &out); code != 0 {
		t.Fatalf("setup campaign exited %d:\n%s", code, out.String())
	}

	bad := cfg
	bad.stopAfter = 0
	bad.resumeFrom = ckpt
	bad.seed = 8 // different campaign
	out.Reset()
	if code := campaign(bad, &out); code != 2 {
		t.Fatalf("resume with mismatched seed exited %d, want 2:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "different campaign") {
		t.Fatalf("mismatch not diagnosed:\n%s", out.String())
	}
}

// TestExploreCampaign smokes -explore end to end: the report gains the
// explore summary line, stays clean (no fork-control digest mismatches —
// that is the Fork contract riding inside every campaign), and remains
// independent of the worker count.
func TestExploreCampaign(t *testing.T) {
	cfg := config{scenarios: 8, seed: 3, parallel: 1, shrink: false, explore: 2}
	var seq, par bytes.Buffer
	if code := campaign(cfg, &seq); code != 0 {
		t.Fatalf("explore campaign exited %d:\n%s", code, seq.String())
	}
	if !strings.Contains(seq.String(), "explore") || !strings.Contains(seq.String(), "0 control mismatches") {
		t.Fatalf("report lacks a clean explore line:\n%s", seq.String())
	}
	cfg4 := cfg
	cfg4.parallel = 4
	if code := campaign(cfg4, &par); code != 0 {
		t.Fatalf("explore campaign exited %d:\n%s", code, par.String())
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("explore report depends on worker count:\n--- parallel 1\n%s--- parallel 4\n%s", seq.String(), par.String())
	}
}
