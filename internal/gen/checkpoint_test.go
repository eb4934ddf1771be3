package gen

import (
	"testing"

	"timedice/internal/check"
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

	cp, err := CheckpointAt(sc, vtime.Time(0).Add(sc.Horizon/3))
	if err != nil {
		t.Fatal(err)
	}
	if cp.At < vtime.Time(0).Add(sc.Horizon/3) || cp.At >= horizon {
		t.Fatalf("checkpoint at %v, want in [%v, %v)", cp.At, vtime.Time(0).Add(sc.Horizon/3), horizon)
	}

	restored, err := RestoreCheckpoint(sc, cp)
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

	restored, err := RestoreCheckpoint(sc, cp)
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
