// Package rng provides a small, fast, deterministic pseudo-random number
// generator for the simulator. Every source of randomness in a TimeDice
// simulation flows from one seeded Rand so that experiments are reproducible
// bit-for-bit given a seed.
//
// The generator is xoshiro256**, seeded through SplitMix64, following the
// reference constructions by Blackman and Vigna. It is not cryptographically
// secure; the paper's randomization only needs statistical quality, and the
// threat model does not include an adversary predicting the scheduler's PRNG.
package rng

import (
	"errors"
	"math"
)

// Rand is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; each simulation owns its own Rand.
type Rand struct {
	s [4]uint64
}

// New returns a Rand seeded from seed via SplitMix64.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed via SplitMix64.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// xoshiro256** requires a non-zero state; SplitMix64 of any seed gives
	// all-zero with negligible probability, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Bit returns a uniform random bit as an int (0 or 1).
func (r *Rand) Bit() int { return int(r.Uint64() >> 63) }

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// CumulativeIndex draws an index in [0, len(cum)) from the running sums of
// a non-negative weight vector, cum[i] = w[0] + … + w[i], each partial sum
// formed by adding w[i] to cum[i−1] in order: index i is chosen with
// probability proportional to w[i]. If the total cum[len−1] is not positive
// (every weight zero) it falls back to a uniform choice. It panics on an
// empty slice.
//
// It consumes one draw, and returns the index that a linear scan summing
// the weights in the same order would: the smallest i with target < cum[i],
// target = Float64()·total, found by bisection. A zero weight leaves the
// running sum flat, so it is never the first sum above the target. When the
// target reaches past the last sum (float slack), the draw is the last
// strictly increasing step, the last weight that moved the sum. The sums
// must not decrease, so negative weights are not allowed.
func (r *Rand) CumulativeIndex(cum []float64) int {
	n := len(cum)
	if n == 0 {
		panic("rng: CumulativeIndex with empty sums")
	}
	total := cum[n-1]
	if total <= 0 {
		return r.Intn(n)
	}
	return searchCumulative(cum, r.Float64()*total)
}

// searchCumulative is CumulativeIndex's bisection for a given target in
// [0, total]. Each step halves the range the first sum above the target can
// lie in, with a conditional add rather than a branch: the target is
// random, so a branch would mispredict at half the steps.
func searchCumulative(cum []float64, target float64) int {
	lo, n := 0, len(cum)
	for n > 1 {
		half := n >> 1
		if cum[lo+half-1] <= target {
			lo += half
		}
		n -= half
	}
	if cum[lo] > target {
		return lo
	}
	if lo+1 < len(cum) {
		return lo + 1
	}
	// Floating-point slack: the last index whose weight moved the sum.
	i := len(cum) - 1
	for i > 0 && cum[i-1] >= cum[i] {
		i--
	}
	return i
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// State returns the raw xoshiro256** state. Together with SetState it lets
// snapshot/restore machinery capture and replay the generator's exact
// position in its stream.
func (r *Rand) State() [4]uint64 { return r.s }

// ErrZeroState is returned by SetState for the all-zero state, which is the
// one state xoshiro256** cannot occupy (it would emit zeros forever).
var ErrZeroState = errors.New("rng: all-zero state")

// SetState restores a state previously obtained from State.
func (r *Rand) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return ErrZeroState
	}
	r.s = s
	return nil
}

// Clone returns an independent generator positioned at exactly r's point in
// the stream: both produce the same subsequent values, and advancing one
// never affects the other.
func (r *Rand) Clone() *Rand { return &Rand{s: r.s} }

// Split derives an independent generator from r, for components that need
// their own stream without perturbing the parent's sequence consumption
// pattern.
func (r *Rand) Split() *Rand {
	child := &Rand{}
	r.SplitInto(child)
	return child
}

// SplitInto reseeds child in place exactly as Split would seed a fresh
// generator, consuming the same single draw from r. Harnesses that retain
// their component generators across trials use it to replay a fresh run's
// split sequence without reallocating.
func (r *Rand) SplitInto(child *Rand) {
	child.Seed(r.Uint64() ^ 0xd1b54a32d192ed03)
}
