package ml

import (
	"math"
	"slices"
)

// SVM trains a soft-margin binary SVM with an RBF kernel using a simplified
// Sequential Minimal Optimization (Platt's SMO with the standard
// first/second-heuristic working-set selection), matching the paper's
// "SVM with Radial Basis Function kernel" receiver.
//
// The receiver's execution vectors hold only 0s and 1s. Over such vectors
// the kernel is a lookup by Hamming distance in a table of dim+1 values (see
// vecSet and rbf), for the Gram matrix, its bounded row cache and every
// prediction; any other input takes the float formula, and both give the
// same bits. SMO's decision values sum over the non-zero multipliers only,
// in index order, and the sweep evaluates four samples' sums side by side,
// so they too keep the bits of one scan over all n per sample.
type SVM struct {
	// C is the soft-margin penalty (default 1).
	C float64
	// Gamma is the RBF width exp(-Gamma‖x−y‖²); 0 ⇒ 1/dim ("scale"-ish).
	Gamma float64
	// Tol is the KKT tolerance (default 1e-3).
	Tol float64
	// MaxPasses is the number of consecutive full passes without updates
	// before stopping (default 3).
	MaxPasses int
	// MaxIter caps total optimization sweeps (default 300).
	MaxIter int
}

var _ Trainer = SVM{}

// Name implements Trainer.
func (s SVM) Name() string { return "svm-rbf" }

type svmModel struct {
	kern   rbf       // over the support vectors
	alphaY []float64 // α_i·y_i for support vectors
	b      float64
}

var _ Classifier = (*svmModel)(nil)

func (m *svmModel) Name() string { return "svm-rbf" }

func (m *svmModel) decision(x []float64) float64 {
	var buf [4]uint64 // a packed query of up to 256 coordinates stays on the stack
	q := m.kern.set.query(buf[:], x)
	sum := -m.b
	for i, a := range m.alphaY {
		sum += a * m.kern.to(i, x, q)
	}
	return sum
}

// Predict implements Classifier.
func (m *svmModel) Predict(x []float64) int {
	if m.decision(x) >= 0 {
		return 1
	}
	return 0
}

// withDefaults fills every unset field; dim is the vector dimension.
func (s SVM) withDefaults(dim int) SVM {
	if s.C <= 0 {
		s.C = 1
	}
	if s.Gamma <= 0 {
		s.Gamma = 1 / float64(dim)
	}
	if s.Tol <= 0 {
		s.Tol = 1e-3
	}
	if s.MaxPasses <= 0 {
		s.MaxPasses = 3
	}
	if s.MaxIter <= 0 {
		s.MaxIter = 300
	}
	return s
}

// Train implements Trainer.
func (s SVM) Train(xs [][]float64, ys []int) (Classifier, error) {
	dim, err := validate(xs, ys)
	if err != nil {
		return nil, err
	}
	s = s.withDefaults(dim)
	y := signs(ys)
	alpha, b := s.smo(newKernelCache(xs, s.Gamma), y)

	// Keep only support vectors.
	var vectors [][]float64
	m := &svmModel{b: b}
	for i, a := range alpha {
		if a > 1e-9 {
			vectors = append(vectors, xs[i])
			m.alphaY = append(m.alphaY, a*y[i])
		}
	}
	m.kern = newRBF(vectors, s.Gamma)
	return m, nil
}

// signs maps labels 1 and 0 to +1 and −1.
func signs(ys []int) []float64 {
	y := make([]float64, len(ys))
	for i, l := range ys {
		if l == 1 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return y
}

// smo runs SMO over the kernel with labels y (±1) and returns the
// multipliers α and the bias b. s must have its defaults filled.
func (s SVM) smo(kern *kernelCache, y []float64) (alpha []float64, b float64) {
	c, tol := s.C, s.Tol
	n := len(y)
	alpha = make([]float64, n)

	// nz lists, ascending, the samples whose α is not zero, so f sums the
	// same terms in the same order as a scan over all n would, and every
	// decision value keeps its bits. setAlpha is the one writer of α, and
	// every step that writes b calls it.
	var nz []int
	var ahead [4]float64 // f(aheadAt…aheadAt+3), see fSweep
	aheadAt := -1        // -1: ahead is stale
	setAlpha := func(i int, a float64) {
		aheadAt = -1
		was := alpha[i] != 0
		alpha[i] = a
		if now := a != 0; now != was {
			p, _ := slices.BinarySearch(nz, i)
			if now {
				nz = slices.Insert(nz, p, i)
			} else {
				nz = slices.Delete(nz, p, p+1)
			}
		}
	}

	// f(i) = decision value for sample i under current (alpha, b).
	f := func(i int) float64 {
		sum := -b
		row := kern.row(i)
		for _, j := range nz {
			sum += alpha[j] * y[j] * row[j]
		}
		return sum
	}

	// fSweep(i) = f(i) for the sweep, which asks for f(0), f(1), … in turn
	// while α and b change at only a few of those steps. It evaluates f for
	// four samples in one pass over nz: each of the four sums adds the same
	// terms in the same order as f, so each keeps f's bits, and the four
	// independent additions overlap where f waits on one. setAlpha discards
	// the three it has not returned yet.
	fSweep := func(i int) float64 {
		if i+len(ahead) > n {
			return f(i)
		}
		if aheadAt < 0 || i < aheadAt || i >= aheadAt+len(ahead) {
			r0, r1, r2, r3 := kern.row(i), kern.row(i+1), kern.row(i+2), kern.row(i+3)
			s0, s1, s2, s3 := -b, -b, -b, -b
			for _, j := range nz {
				a := alpha[j] * y[j]
				s0 += a * r0[j]
				s1 += a * r1[j]
				s2 += a * r2[j]
				s3 += a * r3[j]
			}
			ahead = [4]float64{s0, s1, s2, s3}
			aheadAt = i
		}
		return ahead[i-aheadAt]
	}

	// rnd: a tiny deterministic LCG for the second-choice heuristic fallback,
	// so training is reproducible.
	var lcg uint64 = 0x2545F4914F6CDD1D
	nextRand := func(n int) int {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return int((lcg >> 33) % uint64(n))
	}

	passes := 0
	for iter := 0; passes < s.MaxPasses && iter < s.MaxIter; iter++ {
		changed := 0
		for i := 0; i < n; i++ {
			ei := fSweep(i) - y[i]
			if (y[i]*ei < -tol && alpha[i] < c) || (y[i]*ei > tol && alpha[i] > 0) {
				j := nextRand(n - 1)
				if j >= i {
					j++
				}
				ej := f(j) - y[j]

				ai, aj := alpha[i], alpha[j]
				var lo, hi float64
				if y[i] != y[j] {
					lo = math.Max(0, aj-ai)
					hi = math.Min(c, c+aj-ai)
				} else {
					lo = math.Max(0, ai+aj-c)
					hi = math.Min(c, ai+aj)
				}
				if lo == hi {
					continue
				}
				kii := kern.at(i, i)
				kjj := kern.at(j, j)
				kij := kern.at(i, j)
				eta := 2*kij - kii - kjj
				if eta >= 0 {
					continue
				}
				ajNew := aj - y[j]*(ei-ej)/eta
				if ajNew > hi {
					ajNew = hi
				} else if ajNew < lo {
					ajNew = lo
				}
				if math.Abs(ajNew-aj) < 1e-5 {
					continue
				}
				aiNew := ai + y[i]*y[j]*(aj-ajNew)

				b1 := b + ei + y[i]*(aiNew-ai)*kii + y[j]*(ajNew-aj)*kij
				b2 := b + ej + y[i]*(aiNew-ai)*kij + y[j]*(ajNew-aj)*kjj
				switch {
				case aiNew > 0 && aiNew < c:
					b = b1
				case ajNew > 0 && ajNew < c:
					b = b2
				default:
					b = (b1 + b2) / 2
				}
				setAlpha(i, aiNew)
				setAlpha(j, ajNew)
				changed++
			}
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}
	return alpha, b
}

// kernelCache computes and caches RBF kernel rows. For small n it
// materializes the full Gram matrix; for large n it keeps a bounded set of
// rows and recomputes on miss.
type kernelCache struct {
	k     rbf
	full  [][]float64 // nil when too large
	rows  map[int][]float64
	order []int // FIFO eviction
	limit int
}

const fullKernelLimit = 2200 // ≈38 MB of float64 at the limit

func newKernelCache(xs [][]float64, gamma float64) *kernelCache {
	k := &kernelCache{k: newRBF(xs, gamma)}
	n := len(xs)
	if n <= fullKernelLimit {
		k.full = make([][]float64, n)
		for i := range k.full {
			k.full[i] = make([]float64, n)
			for j := 0; j <= i; j++ {
				v := k.k.at(i, j)
				k.full[i][j] = v
				k.full[j][i] = v
			}
		}
		return k
	}
	k.rows = make(map[int][]float64)
	k.limit = 256
	return k
}

func (k *kernelCache) computeRow(i int) []float64 {
	row := make([]float64, len(k.k.set.xs))
	for j := range row {
		row[j] = k.k.at(i, j)
	}
	return row
}

func (k *kernelCache) row(i int) []float64 {
	if k.full != nil {
		return k.full[i]
	}
	if r, ok := k.rows[i]; ok {
		return r
	}
	r := k.computeRow(i)
	if len(k.order) >= k.limit {
		evict := k.order[0]
		k.order = k.order[1:]
		delete(k.rows, evict)
	}
	k.rows[i] = r
	k.order = append(k.order, i)
	return r
}

func (k *kernelCache) at(i, j int) float64 {
	if k.full != nil {
		return k.full[i][j]
	}
	if r, ok := k.rows[i]; ok {
		return r[j]
	}
	if r, ok := k.rows[j]; ok {
		return r[i]
	}
	return k.k.at(i, j)
}
