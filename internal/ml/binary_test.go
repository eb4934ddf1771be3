package ml

import (
	"math"
	"sort"
	"sync"
	"testing"

	"timedice/internal/rng"
)

// The tests below pin the packed 0/1 path of vecSet and rbf to the float
// path bit for bit: Gram entries, SMO's α and b, SVM decision values and kNN
// predictions. The references are the float code the packed path replaced,
// kept here as test-only copies.

// binaryDims straddle the 64-coordinate word boundary and include the
// receiver's M = 150.
var binaryDims = []int{1, 63, 64, 65, 150, 200}

// binaryGammas: 0 selects SVM's default 1/dim.
var binaryGammas = []float64{0, 0.01, 0.37, 2.5}

// randomBits draws n uniform 0/1 vectors of dim coordinates.
func randomBits(r *rng.Rand, n, dim int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, dim)
		for d := range xs[i] {
			xs[i][d] = float64(r.Bit())
		}
	}
	return xs
}

// refKernel is the float RBF kernel the packed table replaced.
func refKernel(gamma float64, a, b []float64) float64 {
	return math.Exp(-gamma * sqDist(a, b))
}

// refSMO is the float SMO the packed kernel and the non-zero-α list
// replaced: a float Gram matrix, here materialized at every n (past
// fullKernelLimit the old row cache recomputed the same values), and a
// decision value that scans all n multipliers. s must have its defaults
// filled.
func refSMO(s SVM, xs [][]float64, y []float64) (alpha []float64, b float64) {
	c, tol, gamma := s.C, s.Tol, s.Gamma
	n := len(xs)
	gram := make([][]float64, n)
	for i := range gram {
		gram[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			gram[i][j] = refKernel(gamma, xs[i], xs[j])
			gram[j][i] = gram[i][j]
		}
	}
	alpha = make([]float64, n)

	f := func(i int) float64 {
		sum := -b
		row := gram[i]
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				sum += alpha[j] * y[j] * row[j]
			}
		}
		return sum
	}

	var lcg uint64 = 0x2545F4914F6CDD1D
	nextRand := func(n int) int {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return int((lcg >> 33) % uint64(n))
	}

	passes := 0
	for iter := 0; passes < s.MaxPasses && iter < s.MaxIter; iter++ {
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - y[i]
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
				kii := gram[i][i]
				kjj := gram[j][j]
				kij := gram[i][j]
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
				alpha[i], alpha[j] = aiNew, ajNew
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

// refDecision is the float decision value of a trained SVM.
func refDecision(m *svmModel, x []float64) float64 {
	sum := -m.b
	for i, v := range m.kern.set.xs {
		sum += m.alphaY[i] * refKernel(m.kern.gamma, v, x)
	}
	return sum
}

// refKNN is the float kNN prediction the packed distances replaced.
func refKNN(m *knnModel, x []float64) int {
	type cand struct {
		d float64
		y int
	}
	cands := make([]cand, len(m.set.xs))
	for i, v := range m.set.xs {
		cands[i] = cand{d: sqDist(v, x), y: m.ys[i]}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	k := min(m.k, len(cands))
	ones := 0
	for i := 0; i < k; i++ {
		ones += cands[i].y
	}
	if 2*ones >= k {
		return 1
	}
	return 0
}

// sameBits reports whether a and b are the same float64, NaN payloads
// included.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestBinaryGramExact(t *testing.T) {
	r := rng.New(31)
	for _, dim := range binaryDims {
		for _, n := range []int{150, fullKernelLimit + 1} {
			xs := randomBits(r, n, dim)
			// Rows to check in full; below the limit, all of them.
			rows := []int{0, 1, n / 2, n - 1}
			if n <= fullKernelLimit {
				rows = rows[:0]
				for i := range xs {
					rows = append(rows, i)
				}
			}
			for _, gamma := range binaryGammas {
				if gamma == 0 {
					gamma = 1 / float64(dim)
				}
				k := newKernelCache(xs, gamma)
				if k.k.table == nil {
					t.Fatalf("dim %d: 0/1 vectors were not packed", dim)
				}
				if (k.full == nil) != (n > fullKernelLimit) {
					t.Fatalf("n %d: full Gram matrix = %v", n, k.full != nil)
				}
				for _, i := range rows {
					row := k.row(i)
					for j := range xs {
						want := refKernel(gamma, xs[i], xs[j])
						if row[j] != want || k.at(i, j) != want || k.at(j, i) != want {
							t.Fatalf("dim %d n %d gamma %v: K(%d,%d) row %v at %v/%v, want %v",
								dim, n, gamma, i, j, row[j], k.at(i, j), k.at(j, i), want)
						}
					}
				}
			}
		}
	}
}

func TestBinarySVMMatchesFloatSMO(t *testing.T) {
	r := rng.New(32)
	type tc struct {
		dim, n int
		svm    SVM
	}
	var cases []tc
	for _, dim := range binaryDims {
		for _, gamma := range binaryGammas {
			cases = append(cases, tc{dim, 162, SVM{Gamma: gamma}})
		}
		cases = append(cases, tc{dim, 162, SVM{C: 5, Gamma: 0.05}})
	}
	// n = 162 leaves two samples past the last four-sample block of the
	// sweep. Past fullKernelLimit the kernel comes from the bounded row
	// cache; one sweep keeps the case affordable under the race detector.
	cases = append(cases, tc{65, fullKernelLimit + 1, SVM{MaxIter: 1}})
	for _, c := range cases {
		xs, ys := execVectors(r, c.n, c.dim)
		s := c.svm.withDefaults(c.dim)
		y := signs(ys)
		wantAlpha, wantB := refSMO(s, xs, y)
		alpha, b := s.smo(newKernelCache(xs, s.Gamma), y)
		if !sameBits(b, wantB) {
			t.Fatalf("dim %d n %d %+v: b = %v, float SMO %v", c.dim, c.n, c.svm, b, wantB)
		}
		nonzero := 0
		for i := range alpha {
			if !sameBits(alpha[i], wantAlpha[i]) {
				t.Fatalf("dim %d n %d %+v: alpha[%d] = %v, float SMO %v", c.dim, c.n, c.svm, i, alpha[i], wantAlpha[i])
			}
			if alpha[i] != 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			t.Fatalf("dim %d n %d: SMO moved no multiplier; the comparison is empty", c.dim, c.n)
		}

		clf, err := c.svm.Train(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		m := clf.(*svmModel)
		if m.kern.table == nil {
			t.Fatalf("dim %d: support vectors were not packed", c.dim)
		}
		if !sameBits(m.b, wantB) {
			t.Fatalf("dim %d: model b = %v, float SMO %v", c.dim, m.b, wantB)
		}
		sv := 0
		for i, a := range wantAlpha {
			if a > 1e-9 {
				if sv >= len(m.alphaY) || !sameBits(m.alphaY[sv], a*y[i]) {
					t.Fatalf("dim %d: support vector %d differs from the float SMO's", c.dim, sv)
				}
				sv++
			}
		}
		if sv != len(m.alphaY) {
			t.Fatalf("dim %d: %d support vectors, float SMO %d", c.dim, len(m.alphaY), sv)
		}
		queries, _ := execVectors(r, 50, c.dim)
		queries = append(queries, randomBits(r, 50, c.dim)...)
		for _, x := range queries {
			if got, want := m.decision(x), refDecision(m, x); !sameBits(got, want) {
				t.Fatalf("dim %d: decision %v, float %v", c.dim, got, want)
			}
		}
	}
}

func TestBinaryKNNMatchesFloat(t *testing.T) {
	r := rng.New(33)
	for _, dim := range binaryDims {
		xs, ys := execVectors(r, 300, dim)
		queries, _ := execVectors(r, 100, dim)
		queries = append(queries, randomBits(r, 100, dim)...)
		queries = append(queries, xs[:20]...) // a distance of 0 to a training vector
		for _, k := range []int{1, 4, 5, 8} {
			clf, err := KNN{K: k}.Train(xs, ys)
			if err != nil {
				t.Fatal(err)
			}
			m := clf.(*knnModel)
			if m.set.bits == nil {
				t.Fatalf("dim %d: 0/1 vectors were not packed", dim)
			}
			for qi, x := range queries {
				if got, want := m.Predict(x), refKNN(m, x); got != want {
					t.Fatalf("dim %d k %d query %d: predicted %d, float kNN %d", dim, k, qi, got, want)
				}
			}
		}
	}
}

// TestNonBinaryTakesFloatPath: a coordinate other than 0 or 1, in the
// training set or in a query alone, selects the float path, and the result
// is the float code's.
func TestNonBinaryTakesFloatPath(t *testing.T) {
	r := rng.New(34)
	const dim = 70
	for _, odd := range []float64{0.5, -1, math.NaN()} {
		xs, ys := execVectors(r, 120, dim)
		binSVM, err := SVM{}.Train(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		binKNN, err := KNN{}.Train(xs, ys)
		if err != nil {
			t.Fatal(err)
		}

		// A binary-trained model given a non-binary query.
		q := append([]float64(nil), xs[7]...)
		q[dim-1] = odd
		var buf [4]uint64
		sm, km := binSVM.(*svmModel), binKNN.(*knnModel)
		if sm.kern.set.query(buf[:], q) != nil || km.set.query(buf[:], q) != nil {
			t.Fatalf("query with %v was packed", odd)
		}
		if got, want := sm.decision(q), refDecision(sm, q); !sameBits(got, want) {
			t.Fatalf("query with %v: decision %v, float %v", odd, got, want)
		}
		if got, want := km.Predict(q), refKNN(km, q); got != want {
			t.Fatalf("query with %v: kNN %d, float %d", odd, got, want)
		}

		// A non-binary training set.
		xs[3] = append([]float64(nil), xs[3]...)
		xs[3][dim/2] = odd
		if newVecSet(xs).bits != nil {
			t.Fatalf("training set with %v was packed", odd)
		}
		s := SVM{}.withDefaults(dim)
		y := signs(ys)
		k := newKernelCache(xs, s.Gamma)
		if k.k.table != nil {
			t.Fatalf("training set with %v has a kernel table", odd)
		}
		wantAlpha, wantB := refSMO(s, xs, y)
		alpha, b := s.smo(k, y)
		if !sameBits(b, wantB) {
			t.Fatalf("training set with %v: b = %v, float SMO %v", odd, b, wantB)
		}
		for i := range alpha {
			if !sameBits(alpha[i], wantAlpha[i]) {
				t.Fatalf("training set with %v: alpha[%d] = %v, float SMO %v", odd, i, alpha[i], wantAlpha[i])
			}
		}
		fk, err := KNN{}.Train(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs[:40] {
			if got, want := fk.Predict(x), refKNN(fk.(*knnModel), x); got != want {
				t.Fatalf("training set with %v: kNN %d, float %d", odd, got, want)
			}
		}
	}
}

// TestPredictConcurrent: a trained SVM or kNN holds no scratch that Predict
// writes, so concurrent calls agree with sequential ones (run with -race).
func TestPredictConcurrent(t *testing.T) {
	r := rng.New(35)
	xs, ys := execVectors(r, 200, 150)
	queries, _ := execVectors(r, 200, 150)
	queries = append(queries, randomBits(r, 20, 150)...)
	for _, tr := range []Trainer{SVM{}, KNN{}} {
		clf, err := tr.Train(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, len(queries))
		for i, x := range queries {
			want[i] = clf.Predict(x)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, x := range queries {
					if got := clf.Predict(x); got != want[i] {
						t.Errorf("%s: concurrent Predict(%d) = %d, sequential %d", tr.Name(), i, got, want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
