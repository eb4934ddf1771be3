package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of uniforms = %v, want ≈0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	seen := make(map[int]int)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v]++
	}
	for v := 0; v < 7; v++ {
		if seen[v] == 0 {
			t.Errorf("value %d never drawn", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestWeightedIndexDistribution(t *testing.T) {
	r := New(5)
	w := []float64{1, 3, 0, 6}
	counts := make([]int, len(w))
	const n = 100000
	for i := 0; i < n; i++ {
		counts[weightedIndex(r, w)]++
	}
	if counts[2] != 0 {
		t.Errorf("zero-weight index drawn %d times", counts[2])
	}
	for i, want := range []float64{0.1, 0.3, 0, 0.6} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d frequency %v, want ≈%v", i, got, want)
		}
	}
}

func TestWeightedIndexAllZeroFallsBackUniform(t *testing.T) {
	r := New(9)
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[weightedIndex(r, []float64{0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 700 {
			t.Errorf("uniform fallback skewed: index %d drawn %d/3000", i, c)
		}
	}
}

func TestWeightedIndexNegativeTreatedAsZero(t *testing.T) {
	r := New(13)
	for i := 0; i < 1000; i++ {
		if got := weightedIndex(r, []float64{-5, 1, -2}); got != 1 {
			t.Fatalf("negative weights should never win, got index %d", got)
		}
	}
}

func TestBool(t *testing.T) {
	r := New(17)
	if r.Bool(0) {
		t.Error("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) must be true")
	}
	trues := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.25) {
			trues++
		}
	}
	if f := float64(trues) / 10000; math.Abs(f-0.25) > 0.02 {
		t.Errorf("Bool(0.25) frequency %v", f)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(31)
	child := parent.Split()
	// Child stream differs from the parent's continued stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("split stream collided %d times", same)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(37)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance %v", variance)
	}
}
