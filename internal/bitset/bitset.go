// Package bitset provides the two-level hierarchical bitset the engine uses
// for its runnable-partition set at large P. Level 0 is a flat []uint64 with
// one bit per element; level 1 is a summary word layer with one bit per
// level-0 word, set iff that word is non-empty. Scans (first set bit, ordered
// iteration, emptiness below a bound) walk the summary first and descend only
// into occupied 64-element groups, so their cost is proportional to the
// occupied groups — at P=16384 with a handful of runnable partitions that is
// 4 summary words plus one or two group words, instead of 256 words for a
// flat mask.
//
// The zero value of Hier is an empty set over zero elements; build a sized
// one with New. Hier is not safe for concurrent use.
package bitset

import "math/bits"

// Hier is a two-level hierarchical bitset over the fixed universe 0..n-1.
type Hier struct {
	// words is level 0: bit i of words[i/64] marks element i.
	words []uint64
	// summary is level 1: bit g of summary[g/64] marks words[g] != 0.
	summary []uint64
	n       int
}

// New returns an empty set over the universe 0..n-1.
func New(n int) *Hier {
	groups := (n + 63) / 64
	return &Hier{
		words:   make([]uint64, groups),
		summary: make([]uint64, (groups+63)/64),
		n:       n,
	}
}

// Len returns the (fixed) universe size n.
func (b *Hier) Len() int { return b.n }

// Set adds element i to the set.
func (b *Hier) Set(i int) {
	g := i >> 6
	b.words[g] |= 1 << uint(i&63)
	b.summary[g>>6] |= 1 << uint(g&63)
}

// Clear removes element i from the set.
func (b *Hier) Clear(i int) {
	g := i >> 6
	b.words[g] &^= 1 << uint(i&63)
	if b.words[g] == 0 {
		b.summary[g>>6] &^= 1 << uint(g&63)
	}
}

// Test reports whether element i is in the set.
func (b *Hier) Test(i int) bool {
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Any reports whether the set is non-empty, reading only the summary.
func (b *Hier) Any() bool {
	for _, s := range b.summary {
		if s != 0 {
			return true
		}
	}
	return false
}

// ForEachSet calls fn for every set element in ascending order, stopping
// early when fn returns false. It visits only occupied groups: the walk reads
// the summary words, descends into each non-empty group, and never touches an
// empty one. This is the one shared mask-walk loop — System.Runnable, the
// engine's priority-inversion scan (via First), and sched.FixedPriority's
// pick all layer on it.
func (b *Hier) ForEachSet(fn func(i int) bool) {
	for sw, s := range b.summary {
		for s != 0 {
			g := sw<<6 + bits.TrailingZeros64(s)
			s &= s - 1
			for w := b.words[g]; w != 0; w &= w - 1 {
				if !fn(g<<6 + bits.TrailingZeros64(w)) {
					return
				}
			}
		}
	}
}

// First returns the smallest set element, or -1 when the set is empty.
func (b *Hier) First() int {
	first := -1
	b.ForEachSet(func(i int) bool {
		first = i
		return false
	})
	return first
}

// NextSet returns the smallest set element >= i, or -1 when there is none.
// Iterating `for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1)` visits the
// set in ascending order with the same group-pruning as ForEachSet.
func (b *Hier) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	g := i >> 6
	if w := b.words[g] &^ (1<<uint(i&63) - 1); w != 0 {
		return g<<6 + bits.TrailingZeros64(w)
	}
	// Remaining groups, via the summary.
	g++
	for sw := g >> 6; sw < len(b.summary); sw++ {
		s := b.summary[sw]
		if sw == g>>6 {
			s &^= 1<<uint(g&63) - 1
		}
		if s != 0 {
			ng := sw<<6 + bits.TrailingZeros64(s)
			return ng<<6 + bits.TrailingZeros64(b.words[ng])
		}
	}
	return -1
}

// Count returns the number of set elements, visiting only occupied groups.
func (b *Hier) Count() int {
	n := 0
	for sw, s := range b.summary {
		for s != 0 {
			g := sw<<6 + bits.TrailingZeros64(s)
			s &= s - 1
			n += bits.OnesCount64(b.words[g])
		}
	}
	return n
}

// OccupiedGroups returns the number of non-empty 64-element groups — the
// level-0 words a scan actually touches. The engine's cache-traffic proxy
// charges word reads from this.
func (b *Hier) OccupiedGroups() int {
	n := 0
	for _, s := range b.summary {
		n += bits.OnesCount64(s)
	}
	return n
}

// SummaryWords returns the number of level-1 words (the fixed cost every
// scan pays before descending).
func (b *Hier) SummaryWords() int { return len(b.summary) }

// Reset empties the set, retaining capacity.
func (b *Hier) Reset() {
	// Clear only the occupied groups (summary-guided), then the summary
	// itself: at sparse occupancy a reset touches O(occupied + P/4096) words.
	for sw, s := range b.summary {
		for s != 0 {
			g := sw<<6 + bits.TrailingZeros64(s)
			s &= s - 1
			b.words[g] = 0
		}
		b.summary[sw] = 0
	}
}
