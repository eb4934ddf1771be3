package vtime

// Divisionless division. The Algorithm-3 busy-interval fixpoint evaluates
// one CeilDiv per charged replenishment stream per iteration, and the
// divisors — the partition periods T_i — are constants for the lifetime of a
// run. A Reciprocal trades the per-call 64-bit hardware divide (tens of
// cycles, unpipelined) for a one-time magic-constant derivation and a
// per-call widening multiply + shift (a few cycles, fully pipelined), exactly
// in the style of libdivide / "Division by Invariant Integers using
// Multiplication" (Granlund & Montgomery, PLDI '94).
//
// Exactness is unconditional: for every dividend representable as a
// non-negative int64 the quotient equals the hardware result bit-for-bit
// (recip_test.go proves it by exhaustive small-divisor sweeps, adversarial
// near-overflow cases, and the FuzzDivisors target). The decision kernel
// depends on that — reciprocal and plain paths must produce byte-identical
// schedules, which the reference-policy differential of internal/gen pins
// end-to-end.

import "math/bits"

// Reciprocal is the precomputed magic-multiply form of a positive Duration
// divisor. The zero value is invalid; build one with NewReciprocal.
type Reciprocal struct {
	magic uint64
	shift uint8
	// add marks the overflow form q = (((n-m)>>1)+m) >> shift, needed when
	// the magic constant did not fit in 64 bits (libdivide's "add marker").
	add bool
}

// NewReciprocal derives the multiply+shift constants for divisor b. Like
// CeilDiv/FloorDiv it panics when b <= 0. The derivation costs one 128/64
// division; amortize it by computing reciprocals once per run (the engine
// stores them in a constant SoA arena next to hotPeriod).
func NewReciprocal(b Duration) Reciprocal {
	if b <= 0 {
		panic("vtime: NewReciprocal with non-positive divisor")
	}
	d := uint64(b)
	fl := uint8(63 - bits.LeadingZeros64(d))
	if d&(d-1) == 0 {
		// Power of two: a plain shift (magic 0 is the marker).
		return Reciprocal{magic: 0, shift: fl}
	}
	// m = floor(2^(64+fl) / d); the high word 1<<fl is < d (d is not a power
	// of two, so 2^fl < d), which bits.Div64 requires.
	m, rem := bits.Div64(1<<fl, 0, d)
	if e := d - rem; e < 1<<fl {
		// The magic fits in 64 bits with a rounding-up adjustment.
		return Reciprocal{magic: m + 1, shift: fl}
	}
	// 65-bit magic: fold the top bit into the add-marker evaluation form.
	magic := m + m
	if rem2 := rem + rem; rem2 >= d || rem2 < rem {
		magic++
	}
	return Reciprocal{magic: magic + 1, shift: fl, add: true}
}

// div returns n / d for the unsigned dividend n.
func (r Reciprocal) div(n uint64) uint64 {
	if r.magic == 0 {
		return n >> r.shift
	}
	q, _ := bits.Mul64(r.magic, n)
	if r.add {
		return (((n - q) >> 1) + q) >> r.shift
	}
	return q >> r.shift
}

// FloorDiv is FloorDiv(a, d) without the hardware divide: floor(a/d) for
// a >= 0, and 0 when a < 0.
func (r Reciprocal) FloorDiv(a Duration) int64 {
	if a < 0 {
		return 0
	}
	return int64(r.div(uint64(a)))
}

// CeilDiv is CeilDiv(a, d) without the hardware divide: the ⌈x⌉₀ stream-count
// operator of Eq. (1) — ceil(a/d) for a > 0, and 0 when a <= 0. For a >= 1,
// ceil(a/d) = floor((a-1)/d) + 1 with no overflow anywhere in the int64
// domain (the plain CeilDiv uses the same rearrangement). recipRoundSkew is
// the timedice_mutation hook: zero in normal builds (the term folds away),
// one under the tag, corrupting this operator into floor rounding — the
// kernel then undercounts every partial-period replenishment while the
// plain-division reference stays exact.
func (r Reciprocal) CeilDiv(a Duration) int64 {
	if a <= 0 {
		return 0
	}
	return int64(r.div(uint64(a-1))) + 1 - recipRoundSkew
}
