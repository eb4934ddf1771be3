package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"timedice/internal/telemetry"
	"timedice/internal/vtime"
)

// Bundle reasons, recorded in the post-mortem meta.json.
const (
	ReasonOracleViolation = "oracle-violation"
	ReasonWorkerPanic     = "worker-panic"
)

// BundleInfo is everything a post-mortem bundle captures about a failure.
type BundleInfo struct {
	// Tool is the CLI that was running ("simfuzz", ...).
	Tool string
	// Reason is one of the Reason* constants.
	Reason string
	// Detail is free text: the violation messages or the panic value.
	Detail []string
	// Seed identifies the failing trial (the scenario seed, not the
	// campaign master seed).
	Seed uint64
	// TrialIndex is the trial's position in the campaign, -1 when unknown.
	TrialIndex int
	// Scenario is the canonical scenario JSON (gen.Encode output); omitted
	// from the bundle when nil.
	Scenario []byte
	// Events is the flight-recorder window leading up to the failure,
	// oldest first.
	Events []telemetry.Event
	// EventsTotal / EventsDropped are the recorder tallies: how many events
	// the run emitted in total and how many fell out of the window.
	EventsTotal   uint64
	EventsDropped uint64
	// Partitions are the partition names in priority order, for the Chrome
	// trace track labels.
	Partitions []string
	// LiveDigest is the event-stream digest of the failing run;
	// ReplayDigest, when non-zero, is the digest of an independent re-run
	// (the determinism cross-check a matching pair certifies).
	LiveDigest   uint64
	ReplayDigest uint64
	// Counters are the run's engine counters keyed by row name: the State
	// and Work rows of engine.CounterRows (engine.Counters.Values).
	Counters map[string]int64
	// Snapshot, when non-nil, is an engine.Snapshot taken at the last step
	// boundary before the violation (gen.CheckpointBeforeViolation), written
	// into the bundle as state.snapshot. SnapshotTime is the capture instant
	// in simulated microseconds and PrefixDigest the event-stream digest of
	// everything emitted before it: restoring the snapshot and folding the
	// replayed suffix onto PrefixDigest must reproduce LiveDigest, so a bundle
	// replays from just before the failure instead of from zero.
	Snapshot     []byte
	SnapshotTime vtime.Time
	PrefixDigest uint64
}

// bundleMeta is the JSON schema of meta.json inside a bundle.
type bundleMeta struct {
	Version       int              `json:"version"`
	Tool          string           `json:"tool"`
	Reason        string           `json:"reason"`
	Detail        []string         `json:"detail,omitempty"`
	WrittenAt     time.Time        `json:"writtenAt"`
	Seed          string           `json:"seed"` // hex, matches the CLI report format
	TrialIndex    int              `json:"trialIndex"`
	LiveDigest    string           `json:"liveDigest"`
	ReplayDigest  string           `json:"replayDigest,omitempty"`
	EventsInWin   int              `json:"eventsInWindow"`
	EventsTotal   uint64           `json:"eventsTotal"`
	EventsDropped uint64           `json:"eventsDropped"`
	Partitions    []string         `json:"partitions,omitempty"`
	Counters      map[string]int64 `json:"counters,omitempty"`
	SnapshotTime  int64            `json:"snapshotTimeMicros,omitempty"`
	PrefixDigest  string           `json:"prefixDigest,omitempty"`
	Files         []string         `json:"files"`
}

// WriteBundle dumps a post-mortem bundle into its own directory under dir
// and returns that directory's path. The bundle contains
//
//	meta.json          BundleInfo header: reason, seed, digests, counters
//	events.jsonl       the flight-recorder window (telemetry JSONL wire
//	                   format; telemetry.ReadJSONL replays it losslessly)
//	events.trace.json  the same window as Chrome trace-event JSON, loadable
//	                   in Perfetto / chrome://tracing
//	scenario.json      the failing scenario (when provided) — a valid
//	                   timedice-sim / simfuzz reproducer file
//
// The directory name encodes the tool, trial seed, and reason so repeated
// failures in one campaign land side by side.
func WriteBundle(dir string, info BundleInfo) (string, error) {
	name := fmt.Sprintf("postmortem-%s-%#x-%s", info.Tool, info.Seed, info.Reason)
	bdir := filepath.Join(dir, name)
	if err := os.MkdirAll(bdir, 0o755); err != nil {
		return "", fmt.Errorf("obs: bundle dir: %w", err)
	}

	meta := bundleMeta{
		Version:       1,
		Tool:          info.Tool,
		Reason:        info.Reason,
		Detail:        info.Detail,
		WrittenAt:     time.Now().UTC(),
		Seed:          fmt.Sprintf("%#x", info.Seed),
		TrialIndex:    info.TrialIndex,
		LiveDigest:    fmt.Sprintf("%#016x", info.LiveDigest),
		EventsInWin:   len(info.Events),
		EventsTotal:   info.EventsTotal,
		EventsDropped: info.EventsDropped,
		Partitions:    info.Partitions,
		Counters:      info.Counters,
		Files:         []string{"meta.json", "events.jsonl", "events.trace.json"},
	}
	if info.ReplayDigest != 0 {
		meta.ReplayDigest = fmt.Sprintf("%#016x", info.ReplayDigest)
	}

	jf, err := os.Create(filepath.Join(bdir, "events.jsonl"))
	if err != nil {
		return "", fmt.Errorf("obs: bundle events: %w", err)
	}
	sink := telemetry.NewJSONLSink(jf)
	for _, e := range info.Events {
		sink.Event(e)
	}
	if err := sink.Flush(); err != nil {
		jf.Close()
		return "", fmt.Errorf("obs: bundle events: %w", err)
	}
	if err := jf.Close(); err != nil {
		return "", fmt.Errorf("obs: bundle events: %w", err)
	}

	tf, err := os.Create(filepath.Join(bdir, "events.trace.json"))
	if err != nil {
		return "", fmt.Errorf("obs: bundle trace: %w", err)
	}
	if err := telemetry.WriteChromeTrace(tf, info.Events, info.Partitions); err != nil {
		tf.Close()
		return "", fmt.Errorf("obs: bundle trace: %w", err)
	}
	if err := tf.Close(); err != nil {
		return "", fmt.Errorf("obs: bundle trace: %w", err)
	}

	if info.Scenario != nil {
		meta.Files = append(meta.Files, "scenario.json")
		if err := os.WriteFile(filepath.Join(bdir, "scenario.json"), info.Scenario, 0o644); err != nil {
			return "", fmt.Errorf("obs: bundle scenario: %w", err)
		}
	}

	if info.Snapshot != nil {
		meta.SnapshotTime = int64(info.SnapshotTime)
		meta.PrefixDigest = fmt.Sprintf("%#016x", info.PrefixDigest)
		meta.Files = append(meta.Files, "state.snapshot")
		if err := os.WriteFile(filepath.Join(bdir, "state.snapshot"), info.Snapshot, 0o644); err != nil {
			return "", fmt.Errorf("obs: bundle snapshot: %w", err)
		}
	}

	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: bundle meta: %w", err)
	}
	if err := os.WriteFile(filepath.Join(bdir, "meta.json"), append(mb, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("obs: bundle meta: %w", err)
	}
	return bdir, nil
}
