package gen

import (
	"bytes"
	"fmt"
	"testing"

	"timedice/internal/check"
	"timedice/internal/engine"
	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// TestCheckpointRoundTrip: a checkpoint taken a third of the way into a run
// restores into a fresh system whose suffix, folded onto the checkpoint's
// prefix digest, reproduces the straight-line run's digest and event count.
func TestCheckpointRoundTrip(t *testing.T) {
	sc := Generate(rng.New(7), DefaultOptions())
	horizon := vtime.Time(0).Add(sc.Horizon)

	sys, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	full := check.NewDigester()
	sys.AttachTelemetry(full)
	sys.Run(horizon)
	sys.FlushTelemetry()

	cp, err := checkpointAt(sc, vtime.Time(0).Add(sc.Horizon/3))
	if err != nil {
		t.Fatal(err)
	}
	if cp.At < vtime.Time(0).Add(sc.Horizon/3) || cp.At >= horizon {
		t.Fatalf("checkpoint at %v, want in [%v, %v)", cp.At, vtime.Time(0).Add(sc.Horizon/3), horizon)
	}

	restored, err := restoreCheckpoint(sc, cp)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Now() != cp.At {
		t.Fatalf("restored system at %v, want %v", restored.Now(), cp.At)
	}
	suffix := check.ResumeDigester(cp.PrefixDigest, cp.Events)
	restored.AttachTelemetry(suffix)
	restored.Run(horizon)
	restored.FlushTelemetry()

	if suffix.Digest() != full.Digest() || suffix.Events() != full.Events() {
		t.Fatalf("restore-and-replay digest %#016x (%d events) != straight line %#016x (%d events)",
			suffix.Digest(), suffix.Events(), full.Digest(), full.Events())
	}
}

// TestCheckpointBeforeViolationClean: on a clean scenario the checkpoint is
// the last step boundary before the horizon, found is false, and stepping the
// restored system once completes the run digest-identically.
func TestCheckpointBeforeViolationClean(t *testing.T) {
	sc := Generate(rng.New(11), DefaultOptions())
	horizon := vtime.Time(0).Add(sc.Horizon)

	sys, err := Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	full := check.NewDigester()
	sys.AttachTelemetry(full)
	sys.Run(horizon)
	sys.FlushTelemetry()

	cp, found, err := CheckpointBeforeViolation(sc)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatalf("certified-clean scenario reported a violation checkpoint at %v", cp.At)
	}
	if cp.At >= horizon {
		t.Fatalf("checkpoint at %v, want before horizon %v", cp.At, horizon)
	}

	restored, err := restoreCheckpoint(sc, cp)
	if err != nil {
		t.Fatal(err)
	}
	suffix := check.ResumeDigester(cp.PrefixDigest, cp.Events)
	restored.AttachTelemetry(suffix)
	restored.Step(horizon)
	if restored.Now() != horizon {
		t.Fatalf("one step from the final boundary ended at %v, want %v", restored.Now(), horizon)
	}
	restored.FlushTelemetry()
	if suffix.Digest() != full.Digest() || suffix.Events() != full.Events() {
		t.Fatalf("final step digest %#016x (%d events) != straight line %#016x (%d events)",
			suffix.Digest(), suffix.Events(), full.Digest(), full.Events())
	}
}

// checkpointAt runs the scenario from zero to the first step boundary at or
// after `at` (capped at the horizon) and captures a checkpoint there.
func checkpointAt(sc Scenario, at vtime.Time) (Checkpoint, error) {
	sys, err := Build(sc)
	if err != nil {
		return Checkpoint{}, err
	}
	sink := check.NewDigester()
	sys.AttachTelemetry(sink)
	horizon := vtime.Time(0).Add(sc.Horizon)
	for sys.Now() < at && sys.Now() < horizon {
		sys.Step(horizon)
	}
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		return Checkpoint{}, err
	}
	return Checkpoint{State: buf.Bytes(), At: sys.Now(), PrefixDigest: sink.Digest(), Events: sink.Events()}, nil
}

// restoreCheckpoint builds the scenario's system afresh and restores the
// checkpoint into it. The returned system is at cp.At with no telemetry
// attached; attach a sink and run to the horizon to reproduce the
// straight-line run's suffix.
func restoreCheckpoint(sc Scenario, cp Checkpoint) (*engine.System, error) {
	sys, err := Build(sc)
	if err != nil {
		return nil, err
	}
	if err := sys.Restore(bytes.NewReader(cp.State)); err != nil {
		return nil, fmt.Errorf("gen: restoring checkpoint: %w", err)
	}
	return sys, nil
}
