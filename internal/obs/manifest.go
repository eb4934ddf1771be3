package obs

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// ManifestVersion is bumped whenever the run.json schema changes shape.
const ManifestVersion = 1

// Manifest is the run.json schema: one record of provenance per campaign
// invocation, durable enough to answer "which binary, flags, and seed
// produced this number" months later.
type Manifest struct {
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	// Argv is the raw command line, argv[0] included.
	Argv []string `json:"argv"`
	// Flags are the effective flag values after parsing (defaults
	// included), so a manifest is replayable even when argv relied on
	// defaults that later changed.
	Flags map[string]string `json:"flags,omitempty"`
	// GoVersion / VCSRevision / VCSTime / VCSModified identify the build.
	GoVersion   string `json:"goVersion"`
	VCSRevision string `json:"vcsRevision,omitempty"`
	VCSTime     string `json:"vcsTime,omitempty"`
	VCSModified bool   `json:"vcsModified,omitempty"`
	Host        string `json:"host,omitempty"`
	NumCPU      int    `json:"numCPU"`

	Start           time.Time `json:"start"`
	End             time.Time `json:"end,omitempty"`
	DurationSeconds float64   `json:"durationSeconds,omitempty"`
	ExitCode        int       `json:"exitCode"`

	// Digest is the run's headline result digest (e.g. the simfuzz combined
	// event-stream digest), hex-formatted; empty when the tool has none.
	Digest string `json:"digest,omitempty"`
	// Counters are headline numbers: scenarios, violations, events, ...
	Counters map[string]int64 `json:"counters,omitempty"`
	// Artifacts are paths (relative to the run directory when inside it)
	// of files the run produced: post-mortem bundles, reports, figures.
	Artifacts []string `json:"artifacts,omitempty"`
}

// Run is one open ledger entry: a per-run directory under the runs/ root
// holding run.json and any artifacts the campaign drops next to it. A nil
// *Run is inert — every method is a no-op — so CLIs wire the ledger
// unconditionally and let the empty -runs flag disable it.
type Run struct {
	mu  sync.Mutex
	dir string
	m   Manifest
}

// StartRun opens a ledger entry for tool under runsDir, creating
// runsDir/<tool>-<UTC timestamp>-<pid>/ and stamping the build info. An
// empty runsDir returns (nil, nil) — the disabled case. argv should be
// os.Args.
func StartRun(tool, runsDir string, argv []string) (*Run, error) {
	if runsDir == "" {
		return nil, nil
	}
	start := time.Now()
	name := fmt.Sprintf("%s-%s-%d", tool, start.UTC().Format("20060102-150405"), os.Getpid())
	dir := filepath.Join(runsDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: run dir: %w", err)
	}
	host, _ := os.Hostname()
	r := &Run{
		dir: dir,
		m: Manifest{
			Version:   ManifestVersion,
			Tool:      tool,
			Argv:      append([]string(nil), argv...),
			GoVersion: runtime.Version(),
			Host:      host,
			NumCPU:    runtime.NumCPU(),
			Start:     start,
			ExitCode:  -1, // still running; Finish overwrites
		},
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				r.m.VCSRevision = s.Value
			case "vcs.time":
				r.m.VCSTime = s.Value
			case "vcs.modified":
				r.m.VCSModified = s.Value == "true"
			}
		}
	}
	// Write the open manifest immediately: a run killed by the OOM killer
	// or a cancelled CI job still leaves its provenance behind.
	if err := r.write(); err != nil {
		return nil, err
	}
	return r, nil
}

// Dir returns the run's artifact directory ("" on nil).
func (r *Run) Dir() string {
	if r == nil {
		return ""
	}
	return r.dir
}

// RecordFlags captures the effective value of every flag registered on fs.
// Call it after fs.Parse.
func (r *Run) RecordFlags(fs *flag.FlagSet) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m.Flags == nil {
		r.m.Flags = make(map[string]string)
	}
	fs.VisitAll(func(f *flag.Flag) {
		r.m.Flags[f.Name] = f.Value.String()
	})
}

// SetDigest records the run's headline result digest.
func (r *Run) SetDigest(d uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m.Digest = fmt.Sprintf("%#016x", d)
}

// AddCounter adds v to the named headline counter.
func (r *Run) AddCounter(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m.Counters == nil {
		r.m.Counters = make(map[string]int64)
	}
	r.m.Counters[name] += v
}

// AddArtifact records a file or directory the run produced. Paths inside
// the run directory are stored relative to it.
func (r *Run) AddArtifact(path string) {
	if r == nil {
		return
	}
	if rel, err := filepath.Rel(r.dir, path); err == nil && !filepath.IsAbs(rel) && rel != ".." && !hasDotDotPrefix(rel) {
		path = rel
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m.Artifacts = append(r.m.Artifacts, path)
	sort.Strings(r.m.Artifacts)
}

func hasDotDotPrefix(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}

// Finish stamps the end time, duration, and exit code, and rewrites
// run.json. Safe on nil and idempotent enough to sit in a defer alongside
// an explicit error-path call (the last write wins).
func (r *Run) Finish(exitCode int) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.m.End = time.Now()
	r.m.DurationSeconds = r.m.End.Sub(r.m.Start).Seconds()
	r.m.ExitCode = exitCode
	r.mu.Unlock()
	return r.write()
}

// write atomically replaces run.json (write temp + rename) so a scrape of
// the runs/ tree never sees a torn manifest.
func (r *Run) write() error {
	r.mu.Lock()
	b, err := json.MarshalIndent(&r.m, "", "  ")
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("obs: manifest: %w", err)
	}
	tmp := filepath.Join(r.dir, ".run.json.tmp")
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("obs: manifest: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(r.dir, "run.json")); err != nil {
		return fmt.Errorf("obs: manifest: %w", err)
	}
	return nil
}
