// Package vtime provides the virtual time base used by the TimeDice
// simulator: absolute instants (Time) and spans (Duration), both integer
// microseconds. All scheduling and analysis arithmetic is exact integer
// arithmetic so that budget accounting never drifts.
//
// The simulated clock starts at 0. Time and Duration are distinct types to
// prevent accidentally mixing instants with spans; conversions are explicit.
package vtime

import (
	"fmt"
	"math"
)

// Time is an absolute instant on the simulated timeline, in microseconds
// since the start of the simulation.
type Time int64

// Duration is a span of simulated time in microseconds.
type Duration int64

// Convenient duration units.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Infinity is an instant later than any instant a simulation can reach.
// It is used as the "no next event" sentinel.
const Infinity Time = math.MaxInt64

// Forever is a span longer than any simulation horizon.
const Forever Duration = math.MaxInt64

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time {
	if t == Infinity || d == Forever {
		return Infinity
	}
	return t + Time(d)
}

// Sub returns the span from o to t (t - o).
func (t Time) Sub(o Time) Duration { return Duration(t - o) }

// Before reports whether t is strictly earlier than o.
func (t Time) Before(o Time) bool { return t < o }

// Min returns the earlier of t and o.
func (t Time) Min(o Time) Time {
	if t < o {
		return t
	}
	return o
}

// Max returns the later of t and o.
func (t Time) Max(o Time) Time {
	if t > o {
		return t
	}
	return o
}

// Milliseconds returns t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders t in milliseconds, e.g. "12.345ms", or "+inf" for Infinity.
func (t Time) String() string {
	if t == Infinity {
		return "+inf"
	}
	return fmt.Sprintf("%.3fms", t.Milliseconds())
}

// Milliseconds returns d as a floating-point number of milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Seconds returns d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Min returns the smaller of d and o.
func (d Duration) Min(o Duration) Duration {
	if d < o {
		return d
	}
	return o
}

// Max returns the larger of d and o.
func (d Duration) Max(o Duration) Duration {
	if d > o {
		return d
	}
	return o
}

// Scale returns d scaled by the rational num/den, rounding to the nearest
// microsecond. den must be positive.
func (d Duration) Scale(num, den int64) Duration {
	if den <= 0 {
		panic("vtime: Scale with non-positive denominator")
	}
	v := int64(d)*num + den/2
	return Duration(v / den)
}

// String renders d in milliseconds, e.g. "1.000ms", or "+inf" for Forever.
func (d Duration) String() string {
	if d == Forever {
		return "+inf"
	}
	return fmt.Sprintf("%.3fms", d.Milliseconds())
}

// MS constructs a Duration from a number of milliseconds.
func MS(ms int64) Duration { return Duration(ms) * Millisecond }

// US constructs a Duration from a number of microseconds.
func US(us int64) Duration { return Duration(us) }

// FromFloatMS constructs a Duration from fractional milliseconds, rounding to
// the nearest microsecond.
func FromFloatMS(ms float64) Duration {
	return Duration(math.Round(ms * float64(Millisecond)))
}

// CeilDiv returns ceil(a/b) for positive b, and 0 when a <= 0. This is the
// ⌈x⌉₀ operator of the paper's Eq. (1): the number of replenishments with
// offsets o, o+T, o+2T, ... that fall strictly inside a window of length a.
//
// The (a-1)/b + 1 form is exact over the entire int64 domain: the textbook
// (a+b-1)/b wraps for a+b-1 > MaxInt64, which matters because
// Reciprocal.CeilDiv computes the true quotient everywhere and the two must
// agree bit-for-bit (the divisionless decision kernel is pinned
// digest-identical to this reference).
func CeilDiv(a, b Duration) int64 {
	if b <= 0 {
		panic("vtime: CeilDiv with non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (int64(a)-1)/int64(b) + 1
}

// FloorDiv returns floor(a/b) for positive b, and 0 when a < 0.
func FloorDiv(a, b Duration) int64 {
	if b <= 0 {
		panic("vtime: FloorDiv with non-positive divisor")
	}
	if a < 0 {
		return 0
	}
	return int64(a) / int64(b)
}
