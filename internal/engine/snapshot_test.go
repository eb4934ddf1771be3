package engine_test

// The snapshot battery: differential restore over the generated scenario
// corpus (snapshot mid-run, restore into a fresh system, run both to the
// horizon — event digests and deterministic counters must match exactly), a
// golden wire-format pin, and the FuzzSnapshotBytes robustness/canonicality
// target.

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timedice/internal/check"
	"timedice/internal/engine"
	"timedice/internal/experiments/runner"
	"timedice/internal/gen"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/telemetry"
	"timedice/internal/vtime"
)

var updateGolden = flag.Bool("update-golden", false, "regenerate testdata/golden-v*.snapshot")

// snapshotRoundTrip runs sc straight-line while capturing a snapshot at a
// seed-derived mid-run step boundary, restores the snapshot into a freshly
// built system, runs both to the horizon, and compares: the restored
// snapshot must re-encode byte-identically (canonical decode), the
// straight-line digest must equal prefix-digest ⊕ restored suffix, and the
// State counter rows must match exactly. A non-empty mismatch string
// describes the first divergence; err reports setup problems (an unbuildable
// scenario, a failed restore).
func snapshotRoundTrip(sc gen.Scenario) (mismatch string, err error) {
	horizon := vtime.Time(0).Add(sc.Horizon)
	snapAt := vtime.Time(0).Add(vtime.Duration(int64(sc.Horizon) / 10 * int64(1+sc.Seed%8)))

	sys, err := gen.Build(sc)
	if err != nil {
		return "", err
	}
	rec := telemetry.NewRecorder()
	sys.AttachTelemetry(rec)
	var snap []byte
	prefixLen := -1
	for sys.Now() < horizon {
		if prefixLen < 0 && sys.Now() >= snapAt {
			var buf bytes.Buffer
			if err := sys.Snapshot(&buf); err != nil {
				return "", fmt.Errorf("snapshot: %w", err)
			}
			snap, prefixLen = buf.Bytes(), rec.Len()
		}
		sys.Step(horizon)
	}
	if prefixLen < 0 { // degenerate horizon: snapshot the final state
		var buf bytes.Buffer
		if err := sys.Snapshot(&buf); err != nil {
			return "", fmt.Errorf("snapshot: %w", err)
		}
		snap, prefixLen = buf.Bytes(), rec.Len()
	}
	sys.FlushTelemetry()
	straight := rec.Events()

	restored, err := gen.Build(sc)
	if err != nil {
		return "", err
	}
	rec2 := telemetry.NewRecorder()
	restored.AttachTelemetry(rec2)
	if err := restored.Restore(bytes.NewReader(snap)); err != nil {
		return "", fmt.Errorf("restore: %w", err)
	}
	var again bytes.Buffer
	if err := restored.Snapshot(&again); err != nil {
		return "", fmt.Errorf("re-snapshot: %w", err)
	}
	if !bytes.Equal(snap, again.Bytes()) {
		return "restored state re-encodes to different bytes", nil
	}
	restored.Run(horizon)
	restored.FlushTelemetry()

	want := check.FoldEvents(check.DigestSeed, straight)
	got := check.FoldEvents(check.FoldEvents(check.DigestSeed, straight[:prefixLen]), rec2.Events())
	if want != got {
		return fmt.Sprintf("event digest: straight %#016x, snapshot+restore %#016x", want, got), nil
	}
	if sc, rc := sys.Counters.Only(engine.State), restored.Counters.Only(engine.State); sc != rc {
		return fmt.Sprintf("counters: straight %+v, restored %+v", sc, rc), nil
	}
	return "", nil
}

// snapshotScenarios draws the corpus for the restore differential: the full
// default space plus TDMA (snapshots are policy-independent, so every policy
// must survive the round trip).
func snapshotScenarios(n int, seed uint64) []gen.Scenario {
	opts := gen.DefaultOptions()
	opts.Policies = append(opts.Policies, policies.TDMA)
	r := rng.New(seed)
	scs := make([]gen.Scenario, n)
	for i := range scs {
		scs[i] = gen.Generate(r, opts)
	}
	return scs
}

// TestSnapshotRestoreDigestsMatch is the tentpole contract pin: over ≥1k
// generated scenarios across all policies, snapshot → restore → run-to-horizon
// is digest-identical to straight-line execution, counters included.
func TestSnapshotRestoreDigestsMatch(t *testing.T) {
	n := 1000
	if testing.Short() {
		n = 150
	}
	scs := snapshotScenarios(n, 0x5a9)
	_, err := runner.Map(0, scs, func(i int, sc gen.Scenario) (struct{}, error) {
		mismatch, err := snapshotRoundTrip(sc)
		if err != nil {
			// TDMA rejects some generated systems (slot rounds to zero);
			// that is a build property, not a snapshot one.
			if _, berr := gen.Build(sc); berr != nil {
				return struct{}{}, nil
			}
			t.Errorf("scenario %d: %v", i, err)
			return struct{}{}, nil
		}
		if mismatch != "" {
			enc, _ := gen.Encode(sc)
			t.Errorf("scenario %d: %s\nscenario: %s", i, mismatch, enc)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// goldenScenario is the fixed scenario behind the golden snapshot and the
// fuzz target: any change to it invalidates both checked-in artifacts.
func goldenScenario() gen.Scenario {
	return gen.Generate(rng.New(42), gen.DefaultOptions())
}

// goldenSnapshotBytes runs the golden scenario to its mid-run step boundary
// and returns the snapshot bytes.
func goldenSnapshotBytes(tb testing.TB) []byte {
	tb.Helper()
	sc := goldenScenario()
	sys, err := gen.Build(sc)
	if err != nil {
		tb.Fatal(err)
	}
	sys.AttachTelemetry(telemetry.NewRecorder())
	horizon := vtime.Time(0).Add(sc.Horizon)
	mid := vtime.Time(0).Add(sc.Horizon / 2)
	for sys.Now() < mid {
		sys.Step(horizon)
	}
	var buf bytes.Buffer
	if err := sys.Snapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenSnapshot pins the wire format: the golden scenario's mid-run
// snapshot must be byte-identical to the checked-in artifact, whose filename
// embeds SnapshotVersion. Any layout change therefore fails loudly until the
// version is bumped AND the golden regenerated (-update-golden), never
// silently.
func TestGoldenSnapshot(t *testing.T) {
	got := goldenSnapshotBytes(t)
	path := filepath.Join("testdata", fmt.Sprintf("golden-v%d.snapshot", engine.SnapshotVersion))
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden snapshot unreadable: %v\nif the wire format changed intentionally, bump SnapshotVersion and regenerate: go test ./internal/engine -run TestGoldenSnapshot -update-golden", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot wire format drifted from %s (got %d bytes, want %d): bump SnapshotVersion and regenerate the golden", path, len(got), len(want))
	}
	// The artifact must still restore into a fresh build of its system.
	sys, err := gen.Build(goldenScenario())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Restore(bytes.NewReader(want)); err != nil {
		t.Fatalf("golden snapshot does not restore: %v", err)
	}
}

// TestSnapshotRejectsEpochPastBit63 pins the epoch bound the verdict cache
// relies on: a snapshot whose epoch reaches 2^63 is refused, one just below
// it is not refused for its epoch.
func TestSnapshotRejectsEpochPastBit63(t *testing.T) {
	valid := goldenSnapshotBytes(t)
	sc := goldenScenario()
	sys, err := gen.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	// The epoch follows the magic, version, fingerprint, partition count,
	// clock and running index: six 8-byte words.
	const epochAt = 6 * 8
	if got := binary.LittleEndian.Uint64(valid[epochAt:]); got == 0 || got >= 1<<32 {
		t.Fatalf("word at byte %d reads %d; the golden snapshot's epoch should be small and non-zero", epochAt, got)
	}
	for _, tc := range []struct {
		epoch uint64
		ok    bool
	}{{1<<63 - 1, true}, {1 << 63, false}, {^uint64(0), false}} {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(b[epochAt:], tc.epoch)
		err := sys.Restore(bytes.NewReader(b))
		if refused := err != nil && strings.Contains(err.Error(), "epoch"); refused == tc.ok {
			t.Errorf("epoch %d: Restore error %v; want refused for its epoch = %v", tc.epoch, err, !tc.ok)
		}
	}
}

// FuzzSnapshotBytes: Restore on arbitrary bytes must return an error — never
// panic, never over-allocate — and every accepted input is canonical: it
// re-encodes byte-identically through Snapshot.
func FuzzSnapshotBytes(f *testing.F) {
	valid := goldenSnapshotBytes(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	corrupted := bytes.Clone(valid)
	corrupted[len(corrupted)/3] ^= 0x40
	f.Add(corrupted)

	sc := goldenScenario()
	sys, err := gen.Build(sc)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := sys.Restore(bytes.NewReader(data)); err != nil {
			return
		}
		var out bytes.Buffer
		if err := sys.Snapshot(&out); err != nil {
			t.Fatalf("snapshot after successful restore: %v", err)
		}
		if !bytes.Equal(data, out.Bytes()) {
			t.Fatalf("accepted input is not canonical: %d bytes in, %d bytes re-encoded", len(data), out.Len())
		}
		if err := sys.Restore(bytes.NewReader(out.Bytes())); err != nil {
			t.Fatalf("re-restore of canonical bytes failed: %v", err)
		}
	})
}
