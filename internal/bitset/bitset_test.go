package bitset

import (
	"math/bits"
	"testing"

	"timedice/internal/rng"
)

// flat is the reference implementation the hierarchical set must agree with:
// the plain []uint64 mask the engine used before the summary layer.
type flat struct {
	words []uint64
	n     int
}

func newFlat(n int) *flat { return &flat{words: make([]uint64, (n+63)/64), n: n} }

func (f *flat) set(i int)       { f.words[i>>6] |= 1 << uint(i&63) }
func (f *flat) clear(i int)     { f.words[i>>6] &^= 1 << uint(i&63) }
func (f *flat) test(i int) bool { return f.words[i>>6]&(1<<uint(i&63)) != 0 }

func (f *flat) forEachSet(fn func(i int) bool) {
	for w, word := range f.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			if !fn(w<<6 + b) {
				return
			}
		}
	}
}

func (f *flat) first() int {
	r := -1
	f.forEachSet(func(i int) bool { r = i; return false })
	return r
}

func (f *flat) nextSet(i int) int {
	for ; i < f.n; i++ {
		if f.test(i) {
			return i
		}
	}
	return -1
}

func (f *flat) count() int {
	n := 0
	for _, w := range f.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether the set is non-empty, reading only the summary. With
// Count, it observes the summary invariant: a summary bit is set iff its
// group's word is non-zero.
func (b *Hier) Any() bool {
	for _, s := range b.summary {
		if s != 0 {
			return true
		}
	}
	return false
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

// compare checks every query of h against the reference f.
func compare(t *testing.T, h *Hier, f *flat, ctx string) {
	t.Helper()
	if got, want := h.Count(), f.count(); got != want {
		t.Fatalf("%s: Count = %d, want %d", ctx, got, want)
	}
	if got, want := h.Any(), f.count() > 0; got != want {
		t.Fatalf("%s: Any = %v, want %v", ctx, got, want)
	}
	if got, want := h.First(), f.first(); got != want {
		t.Fatalf("%s: First = %d, want %d", ctx, got, want)
	}
	var hs, fs []int
	h.ForEachSet(func(i int) bool { hs = append(hs, i); return true })
	f.forEachSet(func(i int) bool { fs = append(fs, i); return true })
	if len(hs) != len(fs) {
		t.Fatalf("%s: ForEachSet yields %d elements, want %d", ctx, len(hs), len(fs))
	}
	for k := range hs {
		if hs[k] != fs[k] {
			t.Fatalf("%s: ForEachSet[%d] = %d, want %d", ctx, k, hs[k], fs[k])
		}
	}
	// NextSet chains must reproduce the ordered iteration, and agree with the
	// reference from a few scattered anchors.
	k := 0
	for i := h.NextSet(0); i >= 0; i = h.NextSet(i + 1) {
		if k >= len(fs) || i != fs[k] {
			t.Fatalf("%s: NextSet chain diverges at step %d: got %d", ctx, k, i)
		}
		k++
	}
	if k != len(fs) {
		t.Fatalf("%s: NextSet chain stopped after %d of %d elements", ctx, k, len(fs))
	}
}

// TestHierMatchesFlat drives random set/clear/scan sequences against the flat
// reference mask over a spread of universe sizes, including the awkward ones
// (word boundaries, single-summary-word, multi-summary-word).
func TestHierMatchesFlat(t *testing.T) {
	r := rng.New(0xb17537)
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097, 9001} {
		h := New(n)
		f := newFlat(n)
		compare(t, h, f, "empty")
		ops := 2000
		if n > 1000 {
			ops = 5000
		}
		for op := 0; op < ops; op++ {
			i := r.Intn(n)
			if r.Bool(0.5) {
				h.Set(i)
				f.set(i)
			} else {
				h.Clear(i)
				f.clear(i)
			}
			if h.Test(i) != f.test(i) {
				t.Fatalf("n=%d op=%d: Test(%d) mismatch", n, op, i)
			}
			if op%97 == 0 {
				compare(t, h, f, "mid-sequence")
			}
			// NextSet from a random anchor, not just from iteration starts.
			if a := r.Intn(n); h.NextSet(a) != f.nextSet(a) {
				t.Fatalf("n=%d op=%d: NextSet(%d) = %d, want %d",
					n, op, a, h.NextSet(a), f.nextSet(a))
			}
		}
		compare(t, h, f, "final")
		h.Reset()
		if h.Any() || h.Count() != 0 || h.First() != -1 {
			t.Fatalf("n=%d: Reset left the set non-empty", n)
		}
		compare(t, h, newFlat(n), "after reset")
	}
}

// TestHierSparseOccupancy is the P=16384 property test: with k elements set
// in a 16384 universe, every scan must touch only the occupied groups (plus
// the fixed summary layer), and the ordered iteration must return exactly
// the elements set — for many random sparse populations.
func TestHierSparseOccupancy(t *testing.T) {
	const n = 16384
	r := rng.New(0x5a135e7)
	h := New(n)
	if got, want := h.SummaryWords(), 4; got != want {
		t.Fatalf("SummaryWords = %d, want %d at P=%d", got, want, n)
	}
	for trial := 0; trial < 200; trial++ {
		h.Reset()
		k := 1 + r.Intn(8) // sparse: at most 8 runnable of 16384
		want := map[int]bool{}
		for j := 0; j < k; j++ {
			i := r.Intn(n)
			h.Set(i)
			want[i] = true
		}
		if got := h.Count(); got != len(want) {
			t.Fatalf("trial %d: Count = %d, want %d", trial, got, len(want))
		}
		// Occupancy bound: k elements occupy at most k groups.
		if got := h.OccupiedGroups(); got > len(want) {
			t.Fatalf("trial %d: %d occupied groups for %d elements", trial, got, len(want))
		}
		got := map[int]bool{}
		prev := -1
		h.ForEachSet(func(i int) bool {
			if i <= prev {
				t.Fatalf("trial %d: ForEachSet out of order: %d after %d", trial, i, prev)
			}
			prev = i
			got[i] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("trial %d: iterated %d elements, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if !got[i] {
				t.Fatalf("trial %d: element %d set but not iterated", trial, i)
			}
			if !h.Test(i) {
				t.Fatalf("trial %d: Test(%d) false after Set", trial, i)
			}
		}
	}
}

// TestHierZeroAlloc pins the allocation contract: every query on a built set
// is allocation-free (the engine calls these on its hot path).
func TestHierZeroAlloc(t *testing.T) {
	h := New(16384)
	for _, i := range []int{0, 63, 64, 1000, 8191, 16383} {
		h.Set(i)
	}
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		h.ForEachSet(func(i int) bool { sink += i; return true })
		sink += h.First()
		sink += h.Count()
		sink += h.OccupiedGroups()
		for i := h.NextSet(0); i >= 0; i = h.NextSet(i + 1) {
			sink += i
		}
		if h.Any() {
			sink++
		}
		h.Clear(1000)
		h.Set(1000)
	})
	if allocs != 0 {
		t.Errorf("hot-path queries allocate %.1f times per run, want 0 (sink %d)", allocs, sink)
	}
}
