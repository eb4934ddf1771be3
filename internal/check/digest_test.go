package check_test

import (
	"testing"

	"timedice/internal/check"
	"timedice/internal/gen"
	"timedice/internal/rng"
	"timedice/internal/telemetry"
)

// seed1Stream is the complete event stream of the seed-1 generated scenario.
func seed1Stream(tb testing.TB) []telemetry.Event {
	tb.Helper()
	rec := telemetry.NewRecorder()
	suite, _, err := gen.RunRecorded(gen.Generate(rng.New(1), gen.DefaultOptions()), rec)
	if err != nil {
		tb.Fatal(err)
	}
	if rec.Len() == 0 || int64(rec.Len()) != suite.Events() {
		tb.Fatalf("recorded %d events, suite saw %d", rec.Len(), suite.Events())
	}
	return rec.Events()
}

// TestDigestEventsMatchesBytewise: over a real generated stream, the
// production digest equals the byte-wise FNV-1a reference.
func TestDigestEventsMatchesBytewise(t *testing.T) {
	events := seed1Stream(t)
	got, want := check.DigestEvents(events), check.BytewiseDigestEvents(events)
	if got != want {
		t.Fatalf("DigestEvents %#016x != byte-wise %#016x over %d events", got, want, len(events))
	}
}

// benchDigest keeps the benchmarked digests live.
var benchDigest uint64

// BenchmarkDigestEvents times the production fold against the byte-wise
// reference on the seed-1 scenario's stream, per event.
func BenchmarkDigestEvents(b *testing.B) {
	events := seed1Stream(b)
	for _, bc := range []struct {
		name   string
		digest func([]telemetry.Event) uint64
	}{
		{"fold", check.DigestEvents},
		{"bytewise", check.BytewiseDigestEvents},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchDigest = bc.digest(events)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
		})
	}
}
