package eventq

import (
	"slices"
	"testing"

	"timedice/internal/rng"
	"timedice/internal/vtime"
)

// linearMin is the O(n) reference for MinKey.
func linearMin(keys []vtime.Time) vtime.Time {
	m := vtime.Infinity
	for _, k := range keys {
		if k < m {
			m = k
		}
	}
	return m
}

// linearDue is the O(n) reference for CollectDue, sorted by id.
func linearDue(keys []vtime.Time, t vtime.Time) []int32 {
	var out []int32
	for i, k := range keys {
		if k <= t {
			out = append(out, int32(i))
		}
	}
	return out
}

// TestIndexMinAgainstLinearReference drives random key updates through the
// heap and cross-checks MinKey and CollectDue against a plain slice after
// every operation, for a range of universe sizes spanning partial bottom
// levels of the 4-ary layout and several full levels (1000, 4097). After
// every batch it also checks the layout itself: heap order over the
// position-indexed keys, Key(i) for every element, and heap/pos as inverse
// permutations.
func TestIndexMinAgainstLinearReference(t *testing.T) {
	r := rng.New(42)
	for _, n := range []int{1, 2, 3, 4, 5, 16, 17, 37, 64, 100, 1000, 4097} {
		q := NewIndexMin(n)
		ref := make([]vtime.Time, n)
		keyRange := 50 + n
		var due []int32
		for op := 0; op < 2000; op++ {
			i := int(uint64(r.Intn(n)))
			k := vtime.Time(uint64(r.Intn(keyRange)))
			q.Update(i, k)
			ref[i] = k

			if got, want := q.MinKey(), linearMin(ref); got != want {
				t.Fatalf("n=%d op=%d: MinKey=%v want %v", n, op, got, want)
			}
			thresh := vtime.Time(uint64(r.Intn(keyRange + 5)))
			due = q.CollectDue(thresh, due[:0])
			slices.Sort(due)
			want := linearDue(ref, thresh)
			if !slices.Equal(due, want) {
				t.Fatalf("n=%d op=%d: CollectDue(%v)=%v want %v", n, op, thresh, due, want)
			}
			if op%100 == 99 {
				checkLayout(t, q, ref)
			}
		}
		checkLayout(t, q, ref)
	}
}

// checkLayout asserts the heap's internal invariants against the reference
// keys: every position's key is at least its parent's, every element's key
// reads back through Key, and heap and pos are inverse permutations.
func checkLayout(t *testing.T, q *IndexMin, ref []vtime.Time) {
	t.Helper()
	n := len(ref)
	for c := 1; c < n; c++ {
		if parent := (c - 1) / 4; q.hk[parent] > q.hk[c] {
			t.Fatalf("n=%d: heap order broken: position %d key %v above child %d key %v",
				n, parent, q.hk[parent], c, q.hk[c])
		}
	}
	for i := 0; i < n; i++ {
		if q.heap[q.pos[i]] != int32(i) {
			t.Fatalf("n=%d: heap/pos inconsistent at %d", n, i)
		}
		if got := q.Key(i); got != ref[i] {
			t.Fatalf("n=%d: Key(%d)=%v want %v", n, i, got, ref[i])
		}
	}
}

func TestIndexMinInitialAndReset(t *testing.T) {
	q := NewIndexMin(5)
	// All keys start at zero: everything is due at t=0, min is zero.
	if got := q.MinKey(); got != 0 {
		t.Fatalf("initial MinKey = %v, want 0", got)
	}
	due := q.CollectDue(0, nil)
	slices.Sort(due)
	if !slices.Equal(due, []int32{0, 1, 2, 3, 4}) {
		t.Fatalf("initial CollectDue(0) = %v", due)
	}
	for i := 0; i < 5; i++ {
		q.Update(i, vtime.Time(10+i))
	}
	if got := q.CollectDue(5, nil); len(got) != 0 {
		t.Fatalf("CollectDue(5) after updates = %v, want empty", got)
	}
	q.Reset()
	if got := q.MinKey(); got != 0 {
		t.Fatalf("MinKey after Reset = %v, want 0", got)
	}
	due = q.CollectDue(0, due[:0])
	if len(due) != 5 {
		t.Fatalf("CollectDue(0) after Reset returned %d ids, want 5", len(due))
	}
}

func TestIndexMinEmpty(t *testing.T) {
	q := NewIndexMin(0)
	if got := q.MinKey(); got != vtime.Infinity {
		t.Fatalf("empty MinKey = %v, want Infinity", got)
	}
	if got := q.CollectDue(vtime.Infinity, nil); len(got) != 0 {
		t.Fatalf("empty CollectDue = %v", got)
	}
}

// TestIndexMinSteadyStateZeroAlloc pins the allocation-free contract of the
// hot-path operations once the scratch stack has warmed up.
func TestIndexMinSteadyStateZeroAlloc(t *testing.T) {
	q := NewIndexMin(64)
	buf := make([]int32, 0, 64)
	r := rng.New(7)
	// Warm the scratch stack to its high-water mark.
	q.CollectDue(vtime.Infinity, buf[:0])
	allocs := testing.AllocsPerRun(100, func() {
		i := r.Intn(64)
		q.Update(i, vtime.Time(uint64(r.Intn(1000))))
		buf = q.CollectDue(vtime.Time(uint64(r.Intn(1000))), buf[:0])
		_ = q.MinKey()
	})
	if allocs != 0 {
		t.Fatalf("steady-state ops allocated %.1f/op, want 0", allocs)
	}
}

// BenchmarkIndexMinUpdate times the event heap alone on the sparse engine
// workload's update pattern at n=16384: one op takes the element with the
// smallest key (the partition just delivered) and moves its key later by one
// to two simulated seconds, the gap to that partition's next release. Keys
// start spread over two seconds, so each update sifts the root down through
// most of the heap's levels.
func BenchmarkIndexMinUpdate(b *testing.B) {
	const n = 16384
	q := NewIndexMin(n)
	r := rng.New(1)
	for i := 0; i < n; i++ {
		q.Update(i, vtime.Time(uint64(r.Intn(int(2*vtime.Second)))))
	}
	gaps := make([]vtime.Duration, 4096)
	for i := range gaps {
		gaps[i] = vtime.Second + vtime.Duration(uint64(r.Intn(int(vtime.Second))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int(q.heap[0])
		q.Update(id, q.MinKey().Add(gaps[i%len(gaps)]))
	}
}
