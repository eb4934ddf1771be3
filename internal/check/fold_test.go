package check

import (
	"fmt"
	"math"
	"testing"

	"timedice/internal/rng"
	"timedice/internal/telemetry"
	"timedice/internal/vtime"
)

// bytewiseFold is the FNV-1a contract for one little-endian 64-bit word: all
// eight bytes, zero or not, each xored in and multiplied by the prime. It is
// the oracle the production fnvFold must match bit for bit.
func bytewiseFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// bytewiseHashEvent is hashEvent written against bytewiseFold.
func bytewiseHashEvent(h uint64, e telemetry.Event) uint64 {
	h = bytewiseFold(h, uint64(e.Time))
	h = bytewiseFold(h, uint64(e.Kind))
	h = bytewiseFold(h, uint64(int64(e.Partition)))
	for i := 0; i < len(e.Task); i++ {
		h = (h ^ uint64(e.Task[i])) * fnvPrime
	}
	h = bytewiseFold(h, uint64(e.Job))
	h = bytewiseFold(h, uint64(e.Dur))
	h = bytewiseFold(h, uint64(e.Aux))
	return h
}

func bytewiseDigestEvents(events []telemetry.Event) uint64 {
	h := uint64(fnvOffset)
	for _, e := range events {
		h = bytewiseHashEvent(h, e)
	}
	return h
}

// TestFoldMatchesBytewise pins the zero-tail shortcut against the byte-wise
// fold on every byte-length boundary, the all-ones words, and a million
// random words of every significant length.
func TestFoldMatchesBytewise(t *testing.T) {
	r := rng.New(1)
	same := func(h, v uint64) {
		t.Helper()
		if got, want := fnvFold(h, v), bytewiseFold(h, v); got != want {
			t.Fatalf("fnvFold(%#016x, %#016x) = %#016x, byte-wise %#016x", h, v, got, want)
		}
	}
	idle := -1 // an idle Partition, folded as uint64(int64(e.Partition))
	edges := []uint64{0, math.MaxUint64, uint64(int64(idle))}
	for k := 0; k < 8; k++ {
		edges = append(edges, 1<<(8*k)-1, 1<<(8*k))
	}
	for _, v := range edges {
		same(r.Uint64(), v)
		same(fnvOffset, v)
	}
	for i := 0; i < 1_000_000; i++ {
		same(r.Uint64(), r.Uint64()>>(i%65))
	}
}

// goldenStream is a fixed hand-written stream touching every field width:
// an idle partition (-1), an empty and a non-empty task name, a zero and a
// full-width job index, and negative payloads.
var goldenStream = []telemetry.Event{
	{Time: 0, Kind: telemetry.KindTaskArrival, Partition: 0, Task: "t0", Job: 0},
	{Time: 0, Kind: telemetry.KindDecision, Partition: 0, Aux: 3},
	{Time: vtime.Time(1_500_000), Kind: telemetry.KindSlice, Partition: -1, Dur: 1_500_000},
	{Time: vtime.Time(2_000_000), Kind: telemetry.KindTaskComplete, Partition: 2, Task: "sensor-fusion", Job: 1 << 40, Dur: 250_000},
	{Time: vtime.Time(math.MaxInt64), Kind: telemetry.KindBudgetReplenish, Partition: 255, Dur: -1},
	{Time: vtime.Time(-7), Kind: telemetry.KindInversionClose, Partition: 1 << 20, Job: math.MinInt64, Aux: -1},
}

// goldenDigest was computed with bytewiseDigestEvents, so a change shared by
// the byte-wise reference and the fast fold still breaks this pin.
const goldenDigest = "e14535444ee10385"

func TestDigestGolden(t *testing.T) {
	if got := fmt.Sprintf("%016x", bytewiseDigestEvents(goldenStream)); got != goldenDigest {
		t.Fatalf("byte-wise digest %s, want golden %s", got, goldenDigest)
	}
	if got := fmt.Sprintf("%016x", DigestEvents(goldenStream)); got != goldenDigest {
		t.Fatalf("DigestEvents %s, want golden %s", got, goldenDigest)
	}
}

func FuzzFoldMatchesBytewise(f *testing.F) {
	f.Add(uint64(fnvOffset), uint64(0))
	f.Add(uint64(0), uint64(math.MaxUint64))
	f.Add(uint64(fnvOffset), uint64(1)<<56)
	f.Add(uint64(12345), uint64(0xff))
	f.Fuzz(func(t *testing.T, h, v uint64) {
		if got, want := fnvFold(h, v), bytewiseFold(h, v); got != want {
			t.Fatalf("fnvFold(%#016x, %#016x) = %#016x, byte-wise %#016x", h, v, got, want)
		}
	})
}
