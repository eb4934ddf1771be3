package ml

import "sort"

// KNN is a k-nearest-neighbors classifier (Euclidean distance); the simplest
// possible execution-vector decoder, useful as a floor for the learned
// receivers.
//
// Over 0/1 vectors the squared distance is a popcount of packed words (see
// vecSet), exactly the float value, so the sort sees the same keys and
// equal distances, which are common, tie as they do on the float path.
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
	type cand struct {
		d float64
		y int
	}
	var buf [4]uint64 // a packed query of up to 256 coordinates stays on the stack
	q := m.set.query(buf[:], x)
	cands := make([]cand, len(m.ys))
	for i, y := range m.ys {
		cands[i] = cand{d: m.set.sqDistTo(i, x, q), y: y}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	k := m.k
	if k > len(cands) {
		k = len(cands)
	}
	ones := 0
	for i := 0; i < k; i++ {
		ones += cands[i].y
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
