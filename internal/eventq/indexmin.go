package eventq

import (
	"slices"

	"timedice/internal/vtime"
)

// IndexMin is a 4-ary indexed min-heap over the fixed element universe
// 0..n-1, keyed by vtime.Time. Every element is always resident — there is
// no push or pop, only key updates — which matches the engine's use: one
// slot per partition holding that partition's next-local-event time.
//
// The structure supports three O(log₄ n)-or-better operations the engine's
// hot path needs:
//
//   - Update(i, k): move element i to key k (decrease- or increase-key).
//   - MinKey(): the smallest key, for the horizon reduction.
//   - CollectDue(t, buf): every element with key ≤ t, by pruned heap
//     descent — cost O(due·4), independent of n when nothing is due.
//
// Keys are stored by heap position, beside the element ids, not by element:
// a sift level compares the four children of a node as one contiguous block
// of hk instead of four scattered key[heap[c]] loads, and CollectDue prunes
// on hk directly. Key(i) reads through pos.
//
// Heap order among equal keys is unspecified (it depends on the update
// history); callers that need a deterministic ordering of due elements must
// sort the CollectDue result themselves. All operations are allocation-free
// once the internal scratch stack has grown to its high-water mark.
type IndexMin struct {
	hk   []vtime.Time // heap position -> key
	heap []int32      // heap position -> element id
	pos  []int32      // element id -> heap position
	// stack is the retained scratch for CollectDue's pruned descent.
	stack []int32
}

// NewIndexMin returns a heap over elements 0..n-1, all with key zero.
func NewIndexMin(n int) *IndexMin {
	q := &IndexMin{
		hk:    make([]vtime.Time, n),
		heap:  make([]int32, n),
		pos:   make([]int32, n),
		stack: make([]int32, 0, n),
	}
	for i := range q.heap {
		q.heap[i] = int32(i)
		q.pos[i] = int32(i)
	}
	return q
}

// Clone returns an independent copy with the same keys and layout.
func (q *IndexMin) Clone() *IndexMin {
	return &IndexMin{
		hk:    slices.Clone(q.hk),
		heap:  slices.Clone(q.heap),
		pos:   slices.Clone(q.pos),
		stack: make([]int32, 0, len(q.hk)),
	}
}

// Len returns the (fixed) number of elements.
func (q *IndexMin) Len() int { return len(q.hk) }

// Key returns element i's current key.
func (q *IndexMin) Key(i int) vtime.Time { return q.hk[q.pos[i]] }

// MinKey returns the smallest key, or vtime.Infinity if the heap is empty.
func (q *IndexMin) MinKey() vtime.Time {
	if len(q.hk) == 0 {
		return vtime.Infinity
	}
	return q.hk[0]
}

// Update sets element i's key to k and restores heap order. Setting the key
// it already has is a no-op.
func (q *IndexMin) Update(i int, k vtime.Time) {
	p := q.pos[i]
	old := q.hk[p]
	switch {
	case k < old:
		q.up(p, int32(i), k)
	case k > old:
		q.down(p, int32(i), k)
	}
}

// CollectDue appends to out the id of every element with key ≤ t and returns
// the extended slice, in unspecified order. Keys are not modified. The
// descent prunes any subtree whose root key exceeds t, so the cost is
// proportional to the number of due elements (times the arity), not to n.
func (q *IndexMin) CollectDue(t vtime.Time, out []int32) []int32 {
	if len(q.hk) == 0 || q.hk[0] > t {
		return out
	}
	stack := append(q.stack[:0], 0)
	n := int32(len(q.hk))
	for len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, q.heap[node])
		c := 4*node + 1
		for end := min(c+4, n); c < end; c++ {
			if q.hk[c] <= t {
				stack = append(stack, c)
			}
		}
	}
	q.stack = stack[:0]
	return out
}

// Reset restores the initial state: all keys zero, identity layout. Retains
// capacity.
func (q *IndexMin) Reset() {
	for i := range q.hk {
		q.hk[i] = 0
		q.heap[i] = int32(i)
		q.pos[i] = int32(i)
	}
}

// place puts element id with key k at heap position p.
func (q *IndexMin) place(p, id int32, k vtime.Time) {
	q.hk[p] = k
	q.heap[p] = id
	q.pos[id] = p
}

// up moves element id, whose key dropped to k, from position p toward the
// root: each strictly larger parent shifts down one level into the hole.
func (q *IndexMin) up(p, id int32, k vtime.Time) {
	for p > 0 {
		parent := (p - 1) >> 2
		if k >= q.hk[parent] {
			break
		}
		q.place(p, q.heap[parent], q.hk[parent])
		p = parent
	}
	q.place(p, id, k)
}

// down moves element id, whose key rose to k, from position p toward the
// leaves: at each level the first smallest of the contiguous child block
// shifts up into the hole while it is strictly below k.
func (q *IndexMin) down(p, id int32, k vtime.Time) {
	n := int32(len(q.hk))
	for {
		c := 4*p + 1
		if c >= n {
			break
		}
		best, bk := c, q.hk[c]
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q.hk[j] < bk {
				best, bk = j, q.hk[j]
			}
		}
		if bk >= k {
			break
		}
		q.place(p, q.heap[best], bk)
		p = best
	}
	q.place(p, id, k)
}
