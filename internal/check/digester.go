package check

import "timedice/internal/telemetry"

// Digester is the minimal telemetry sink: it folds every event into the
// canonical FNV-1a stream digest and counts them, and does nothing else — no
// oracles, no ledgers. A checkpoint records its prefix digest with one, a
// fork continues its parent's digest with one (ResumeDigester), and it is
// the cheapest way for a test to pin "these two runs emitted byte-identical
// event streams".
type Digester struct {
	h uint64
	n int64
}

// NewDigester returns a Digester starting at DigestSeed.
func NewDigester() *Digester { return &Digester{h: DigestSeed} }

// ResumeDigester returns a Digester continuing a stream whose first n events
// digested to h — a checkpoint's prefix, or a fork's parent run so far.
func ResumeDigester(h uint64, n int64) *Digester { return &Digester{h: h, n: n} }

// Event implements telemetry.Sink.
func (d *Digester) Event(e telemetry.Event) {
	d.h = hashEvent(d.h, e)
	d.n++
}

// Digest returns the running stream digest — equal to FoldEvents from
// DigestSeed over every event observed so far.
func (d *Digester) Digest() uint64 { return d.h }

// Events returns the number of events folded so far.
func (d *Digester) Events() int64 { return d.n }

// Reset rewinds the Digester to its initial state.
func (d *Digester) Reset() {
	d.h = DigestSeed
	d.n = 0
}

var _ telemetry.Sink = (*Digester)(nil)

// Fold64 folds one 64-bit word into a running FNV-1a digest as its eight
// little-endian bytes — the same primitive the event digest uses.
// Aggregators use it to combine per-unit digests into one order-sensitive
// summary: simfuzz's campaign digest folds each scenario's digest in
// scenario order.
func Fold64(h, v uint64) uint64 { return fnvFold(h, v) }
