package obs_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"timedice/internal/obs"
)

// TestRunLedger walks one full ledger entry: StartRun writes an open
// manifest immediately, the mutators accumulate, Finish stamps the outcome,
// and the written run.json round-trips the schema.
func TestRunLedger(t *testing.T) {
	root := t.TempDir()
	run, err := obs.StartRun("unittest", root, []string{"unittest", "-x", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if run.Dir() == "" || filepath.Dir(run.Dir()) != root {
		t.Fatalf("run dir %q not directly under %q", run.Dir(), root)
	}
	if base := filepath.Base(run.Dir()); !strings.HasPrefix(base, "unittest-") {
		t.Fatalf("run dir name %q does not start with the tool name", base)
	}

	// The open manifest is already on disk (crash-durable provenance).
	open, err := readManifest(filepath.Join(run.Dir(), "run.json"))
	if err != nil {
		t.Fatalf("open manifest unreadable: %v", err)
	}
	if open.ExitCode != -1 || open.End.IsZero() == false {
		t.Fatalf("open manifest should read as still-running: %+v", open)
	}

	fs := flag.NewFlagSet("unittest", flag.ContinueOnError)
	n := fs.Int("x", 0, "")
	if err := fs.Parse([]string{"-x", "1"}); err != nil {
		t.Fatal(err)
	}
	_ = n
	run.RecordFlags(fs)
	run.SetDigest(0xdeadbeef)
	run.AddCounter("scenarios", 100)
	run.AddCounter("scenarios", 50)
	inside := filepath.Join(run.Dir(), "bundle-1")
	run.AddArtifact(inside)
	run.AddArtifact("/elsewhere/report.md")
	if err := run.Finish(0); err != nil {
		t.Fatal(err)
	}

	m, err := readManifest(filepath.Join(run.Dir(), "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != obs.ManifestVersion || m.Tool != "unittest" {
		t.Fatalf("header = %+v", m)
	}
	if len(m.Argv) != 3 || m.Argv[2] != "1" {
		t.Fatalf("argv = %v", m.Argv)
	}
	if m.Flags["x"] != "1" {
		t.Fatalf("flags = %v, want x=1 captured", m.Flags)
	}
	if m.GoVersion != runtime.Version() || m.NumCPU != runtime.NumCPU() {
		t.Fatalf("build/host stamp = %+v", m)
	}
	if m.ExitCode != 0 || m.End.Before(m.Start) || m.DurationSeconds < 0 {
		t.Fatalf("outcome stamp = exit %d start %v end %v", m.ExitCode, m.Start, m.End)
	}
	if m.Digest != "0x00000000deadbeef" {
		t.Fatalf("digest = %q", m.Digest)
	}
	if m.Counters["scenarios"] != 150 {
		t.Fatalf("counters = %v, want scenarios accumulated to 150", m.Counters)
	}
	// Artifacts inside the run dir are relativized, outside ones kept as-is,
	// and the list is sorted.
	want := []string{"/elsewhere/report.md", "bundle-1"}
	if len(m.Artifacts) != 2 || m.Artifacts[0] != want[0] || m.Artifacts[1] != want[1] {
		t.Fatalf("artifacts = %v, want %v", m.Artifacts, want)
	}
	// No stray temp file left behind by the atomic write.
	if _, err := os.Stat(filepath.Join(run.Dir(), ".run.json.tmp")); !os.IsNotExist(err) {
		t.Fatalf("atomic-write temp file still present (err=%v)", err)
	}
}

// TestRunLedgerDisabled: an empty runs root disables the ledger, and the nil
// *Run it returns absorbs every call.
func TestRunLedgerDisabled(t *testing.T) {
	run, err := obs.StartRun("unittest", "", os.Args)
	if err != nil || run != nil {
		t.Fatalf("StartRun(\"\") = (%v, %v), want (nil, nil)", run, err)
	}
	if run.Dir() != "" {
		t.Fatal("nil run must report an empty dir")
	}
	run.RecordFlags(flag.NewFlagSet("x", flag.ContinueOnError))
	run.SetDigest(1)
	run.AddCounter("n", 1)
	run.AddArtifact("x")
	if err := run.Finish(0); err != nil {
		t.Fatalf("nil Finish = %v", err)
	}
}

// readManifest loads a run.json.
func readManifest(path string) (obs.Manifest, error) {
	var m obs.Manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(b, &m)
}
