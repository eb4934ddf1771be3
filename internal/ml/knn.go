package ml

import (
	"cmp"
	"slices"
	"sort"
)

// KNN is a k-nearest-neighbors classifier (Euclidean distance); the simplest
// possible execution-vector decoder, useful as a floor for the learned
// receivers.
//
// Over 0/1 vectors the squared distance is a popcount of packed words (see
// vecSet), exactly the float value. Predict then sorts 8-byte keys h<<1|y
// with slices.SortFunc comparing h alone, where the float path sorts
// (distance, label) pairs with sort.Slice. Both sorts are instances of one
// pdqsort template, so the same comparison outcomes give the same
// permutation, and equal distances, which are common, tie as they do on the
// float path.
type KNN struct {
	// K is the neighborhood size (default 5).
	K int
}

var _ Trainer = KNN{}

// Name implements Trainer.
func (k KNN) Name() string { return "knn" }

type knnModel struct {
	set vecSet
	ys  []int
	k   int
}

var _ Classifier = (*knnModel)(nil)

func (m *knnModel) Name() string { return "knn" }

// Predict implements Classifier.
func (m *knnModel) Predict(x []float64) int {
	var buf [4]uint64 // a packed query of up to 256 coordinates stays on the stack
	k := min(m.k, len(m.ys))
	ones := 0
	if q := m.set.query(buf[:], x); q != nil {
		keys := make([]uint64, len(m.ys))
		for i, y := range m.ys {
			keys[i] = uint64(hamming(m.set.row(i), q))<<1 | uint64(y)
		}
		slices.SortFunc(keys, func(a, b uint64) int { return cmp.Compare(a>>1, b>>1) })
		for _, key := range keys[:k] {
			ones += int(key & 1)
		}
	} else {
		type cand struct {
			d float64
			y int
		}
		cands := make([]cand, len(m.ys))
		for i, y := range m.ys {
			cands[i] = cand{d: sqDist(m.set.xs[i], x), y: y}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
		for _, c := range cands[:k] {
			ones += c.y
		}
	}
	if 2*ones >= k {
		return 1
	}
	return 0
}

// Train implements Trainer.
func (k KNN) Train(xs [][]float64, ys []int) (Classifier, error) {
	if _, err := validate(xs, ys); err != nil {
		return nil, err
	}
	kk := k.K
	if kk <= 0 {
		kk = 5
	}
	return &knnModel{set: newVecSet(xs), ys: ys, k: kk}, nil
}
