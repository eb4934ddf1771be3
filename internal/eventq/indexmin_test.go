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
// levels of the 4-ary layout.
func TestIndexMinAgainstLinearReference(t *testing.T) {
	r := rng.New(42)
	for _, n := range []int{1, 2, 3, 4, 5, 16, 17, 37, 64, 100} {
		q := NewIndexMin(n)
		ref := make([]vtime.Time, n)
		var due []int32
		for op := 0; op < 2000; op++ {
			i := int(uint64(r.Intn(n)))
			k := vtime.Time(uint64(r.Intn(50)))
			q.Update(i, k)
			ref[i] = k

			if got, want := q.MinKey(), linearMin(ref); got != want {
				t.Fatalf("n=%d op=%d: MinKey=%v want %v", n, op, got, want)
			}
			thresh := vtime.Time(uint64(r.Intn(55)))
			due = q.CollectDue(thresh, due[:0])
			slices.Sort(due)
			want := linearDue(ref, thresh)
			if !slices.Equal(due, want) {
				t.Fatalf("n=%d op=%d: CollectDue(%v)=%v want %v", n, op, thresh, due, want)
			}
		}
		// Internal consistency: pos and heap must stay inverse permutations.
		for i := 0; i < n; i++ {
			if q.heap[q.pos[i]] != int32(i) {
				t.Fatalf("n=%d: heap/pos inconsistent at %d", n, i)
			}
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
