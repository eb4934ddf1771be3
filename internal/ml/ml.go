// Package ml implements the supervised learners used by the paper's
// learning-based covert-channel receiver (§III-d): a Support Vector Machine
// with RBF kernel trained by Sequential Minimal Optimization (the paper's
// classifier), plus Random Forest (also named by the paper), logistic
// regression, and k-nearest-neighbors baselines. Everything is standard
// library only.
package ml

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Classifier is a trained binary classifier over float vectors with labels
// 0 and 1.
type Classifier interface {
	// Predict returns the predicted label (0 or 1) for x.
	Predict(x []float64) int
	// Name identifies the learner.
	Name() string
}

// Trainer builds a classifier from labeled data.
type Trainer interface {
	// Train fits a model. Labels must be 0 or 1; every vector must have the
	// same dimension.
	Train(xs [][]float64, ys []int) (Classifier, error)
	Name() string
}

// ErrBadTrainingSet is returned when the data is empty, ragged, or
// single-class.
var ErrBadTrainingSet = errors.New("ml: bad training set")

// validate checks shape and returns the dimension.
func validate(xs [][]float64, ys []int) (int, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, fmt.Errorf("%w: %d vectors, %d labels", ErrBadTrainingSet, len(xs), len(ys))
	}
	dim := len(xs[0])
	if dim == 0 {
		return 0, fmt.Errorf("%w: zero-dimensional vectors", ErrBadTrainingSet)
	}
	seen := [2]bool{}
	for i, x := range xs {
		if len(x) != dim {
			return 0, fmt.Errorf("%w: vector %d has dim %d, want %d", ErrBadTrainingSet, i, len(x), dim)
		}
		if ys[i] != 0 && ys[i] != 1 {
			return 0, fmt.Errorf("%w: label %d is %d, want 0 or 1", ErrBadTrainingSet, i, ys[i])
		}
		seen[ys[i]] = true
	}
	if !seen[0] || !seen[1] {
		return 0, fmt.Errorf("%w: training set contains a single class", ErrBadTrainingSet)
	}
	return dim, nil
}

// Accuracy returns the fraction of samples clf labels correctly.
func Accuracy(clf Classifier, xs [][]float64, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i, x := range xs {
		if clf.Predict(x) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

// dot returns the inner product of equal-length vectors.
func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// sqDist returns ‖a−b‖².
func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// vecSet is a set of equal-length vectors prepared for squared-distance
// queries, and the one place that chooses how distances are computed, for
// the SVM's kernel and kNN alike.
//
// The covert receiver's execution vectors hold only 0s and 1s. For such a
// set vecSet also keeps every vector packed one coordinate per bit, w words
// a vector, and ‖a−b‖² of two packed vectors is the popcount of a⊕b. That is
// exact: each term (a_d−b_d)² is 0 or 1, every partial sum of sqDist is an
// integer far below 2⁵³, so sqDist returns exactly float64(popcount). A set
// or query with any other coordinate (0.5, −1, NaN, …) takes sqDist.
type vecSet struct {
	xs   [][]float64
	dim  int
	w    int      // words per packed vector
	bits []uint64 // len(xs)·w words; nil unless every coordinate is 0 or 1
}

func newVecSet(xs [][]float64) vecSet {
	s := vecSet{xs: xs}
	if len(xs) == 0 {
		return s
	}
	s.dim = len(xs[0])
	s.w = (s.dim + 63) / 64
	packed := make([]uint64, len(xs)*s.w)
	for i, x := range xs {
		if !packBits(packed[i*s.w:(i+1)*s.w], x) {
			return s
		}
	}
	s.bits = packed
	return s
}

// packBits ORs x into the zeroed dst one coordinate per bit and reports
// whether every coordinate is exactly 0 or 1.
func packBits(dst []uint64, x []float64) bool {
	for d, v := range x {
		switch v {
		case 0:
		case 1:
			dst[d>>6] |= 1 << (d & 63)
		default:
			return false
		}
	}
	return true
}

// query packs x for distance queries against the set, into buf when it is
// long enough, so a caller can keep the words on its stack. It returns nil
// when the set is not packed, or x has another length or a coordinate other
// than 0 or 1: such a query takes sqDist.
func (s *vecSet) query(buf []uint64, x []float64) []uint64 {
	if s.bits == nil || len(x) != s.dim {
		return nil
	}
	var q []uint64
	if s.w <= len(buf) {
		q = buf[:s.w]
		clear(q)
	} else {
		q = make([]uint64, s.w)
	}
	if !packBits(q, x) {
		return nil
	}
	return q
}

// row returns packed vector i.
func (s *vecSet) row(i int) []uint64 { return s.bits[i*s.w : (i+1)*s.w] }

// hamming returns the popcount of a xor b, two packed vectors.
func hamming(a, b []uint64) int {
	h := 0
	for k, v := range a {
		h += bits.OnesCount64(v ^ b[k])
	}
	return h
}

// rbf evaluates the kernel exp(−γ‖a−b‖²) over a vecSet. Over a packed set
// ‖a−b‖² takes only the dim+1 values 0…dim, and table[h] holds
// math.Exp(-gamma*float64(h)): the same call on the same argument as the
// float path's math.Exp(-gamma*sqDist(a, b)), hence the same bits.
type rbf struct {
	set   vecSet
	gamma float64
	table []float64 // nil unless set is packed
}

func newRBF(xs [][]float64, gamma float64) rbf {
	k := rbf{set: newVecSet(xs), gamma: gamma}
	if k.set.bits != nil {
		k.table = make([]float64, k.set.dim+1)
		for h := range k.table {
			k.table[h] = math.Exp(-gamma * float64(h))
		}
	}
	return k
}

// at returns the kernel between set vectors i and j.
func (k *rbf) at(i, j int) float64 {
	if k.table != nil {
		return k.table[hamming(k.set.row(i), k.set.row(j))]
	}
	return math.Exp(-k.gamma * sqDist(k.set.xs[i], k.set.xs[j]))
}

// to returns the kernel between set vector i and x, where q is
// set.query(…, x).
func (k *rbf) to(i int, x []float64, q []uint64) float64 {
	if q != nil {
		return k.table[hamming(k.set.row(i), q)]
	}
	return math.Exp(-k.gamma * sqDist(k.set.xs[i], x))
}
