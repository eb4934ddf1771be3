package gen

// Checkpointing scenario runs: Build exposes the exact system construction
// Run uses, and CheckpointAt / CheckpointBeforeViolation capture an
// engine.Snapshot of a scenario mid-run together with the event-digest prefix
// up to that point. A checkpoint restores into a freshly built system and
// continues digest-identically, which is what lets post-mortem bundles
// restore-and-replay instead of replaying from zero, and lets simfuzz branch
// exploration forks from interesting states.

import (
	"bytes"
	"fmt"

	"timedice/internal/check"
	"timedice/internal/engine"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// Build constructs the scenario's system exactly as Run does — built spec,
// policy from the scenario's kind and quantum, engine seeded with the
// scenario seed — without running it or attaching any telemetry. Two Build
// calls on the same scenario produce configuration-identical systems, so a
// snapshot taken from one restores into the other.
func Build(sc Scenario) (*engine.System, error) {
	built, err := sc.Spec.Build()
	if err != nil {
		return nil, err
	}
	pol, err := policies.Build(sc.Policy, built.Partitions, policies.Options{Quantum: sc.Quantum})
	if err != nil {
		return nil, err
	}
	return engine.New(built.Partitions, pol, rng.New(sc.Seed))
}

// Checkpoint is a mid-run capture of a scenario: the engine snapshot, the
// instant it was taken, and the digest and count of the events emitted before
// it. Restoring State and folding the post-restore events onto PrefixDigest
// reproduces the straight-line run's final digest.
type Checkpoint struct {
	State        []byte
	At           vtime.Time
	PrefixDigest uint64
	Events       int64
}

// CheckpointAt runs the scenario from zero to the first step boundary at or
// after `at` (capped at the horizon) and captures a checkpoint there.
func CheckpointAt(sc Scenario, at vtime.Time) (Checkpoint, error) {
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

// CheckpointBeforeViolation runs the scenario with the full oracle suite
// attached, checkpointing before every step, and returns the checkpoint taken
// immediately before the step that produced the first oracle violation. found
// is false when the run is clean; the returned checkpoint is then the last
// step boundary before the horizon. Restoring the checkpoint and stepping
// once reproduces the violating step.
func CheckpointBeforeViolation(sc Scenario) (cp Checkpoint, found bool, err error) {
	suite, err := check.NewSuite(sc.Spec, sc.Policy)
	if err != nil {
		return Checkpoint{}, false, err
	}
	sys, err := Build(sc)
	if err != nil {
		return Checkpoint{}, false, err
	}
	sys.AttachTelemetry(suite)
	horizon := vtime.Time(0).Add(sc.Horizon)
	var buf bytes.Buffer
	for sys.Now() < horizon {
		buf.Reset()
		if err := sys.Snapshot(&buf); err != nil {
			return Checkpoint{}, false, err
		}
		cp = Checkpoint{
			State:        bytes.Clone(buf.Bytes()),
			At:           sys.Now(),
			PrefixDigest: suite.Digest(),
			Events:       suite.Events(),
		}
		sys.Step(horizon)
		if _, n := suite.Violations(); n > 0 {
			return cp, true, nil
		}
	}
	return cp, false, nil
}

// RestoreCheckpoint builds the scenario's system afresh and restores the
// checkpoint into it. The returned system is at cp.At with no telemetry
// attached; attach a sink and run to the horizon to reproduce the
// straight-line run's suffix.
func RestoreCheckpoint(sc Scenario, cp Checkpoint) (*engine.System, error) {
	sys, err := Build(sc)
	if err != nil {
		return nil, err
	}
	if err := sys.Restore(bytes.NewReader(cp.State)); err != nil {
		return nil, fmt.Errorf("gen: restoring checkpoint: %w", err)
	}
	return sys, nil
}
