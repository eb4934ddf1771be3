package stats

import (
	"math"
	"slices"
	"testing"

	"timedice/internal/rng"
)

var sketchQs = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

// adversarialSamples builds the distributions the documented error bound is
// tested on: bimodal (two well-separated normal modes), heavy-tail
// (lognormal with σ=2), and constant.
func adversarialSamples(name string, n int, seed uint64) []float64 {
	r := rng.New(seed)
	xs := make([]float64, n)
	switch name {
	case "bimodal":
		for i := range xs {
			if r.Bool(0.5) {
				xs[i] = 10 + r.NormFloat64()
			} else {
				xs[i] = 1000 + 30*r.NormFloat64()
			}
		}
	case "heavytail":
		for i := range xs {
			xs[i] = math.Exp(2 * r.NormFloat64())
		}
	case "constant":
		for i := range xs {
			xs[i] = 7.3
		}
	default:
		panic("unknown distribution " + name)
	}
	return xs
}

// TestSketchExactModeMatchesQuantiles pins the small-N fallback: at or
// below the exact capacity, sketch answers are bit-identical to the
// package's exact quantile functions.
func TestSketchExactModeMatchesQuantiles(t *testing.T) {
	r := rng.New(3)
	xs := make([]float64, sketchExactCap)
	for i := range xs {
		xs[i] = r.NormFloat64() * 100
	}
	s := NewSketch()
	for _, x := range xs {
		s.Add(x)
	}
	got := s.Quantiles(sketchQs...)
	want := Quantiles(xs, sketchQs...)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("q=%v: sketch %v != exact %v", sketchQs[i], got[i], want[i])
		}
	}
	if s.Min() != Quantile(xs, 0) || s.Max() != Quantile(xs, 1) {
		t.Errorf("min/max mismatch: %v/%v", s.Min(), s.Max())
	}
	if s.N() != int64(len(xs)) {
		t.Errorf("N = %d, want %d", s.N(), len(xs))
	}
}

// TestSketchRelativeErrorBound verifies the documented guarantee on the
// adversarial distributions: once spilled, the estimate for quantile q is
// within relative error α of the order statistic at rank round(q·(n−1)).
func TestSketchRelativeErrorBound(t *testing.T) {
	for _, name := range []string{"bimodal", "heavytail", "constant"} {
		xs := adversarialSamples(name, 50000, 11)
		s := NewSketch()
		for _, x := range xs {
			s.Add(x)
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for _, q := range sketchQs {
			rank := int(math.Round(q * float64(len(sorted)-1)))
			want := sorted[rank]
			got := s.Quantile(q)
			if err := math.Abs(got - want); err > s.Accuracy()*math.Abs(want)+1e-9 {
				t.Errorf("%s q=%v: est %v vs rank value %v, rel err %.4f > α=%v",
					name, q, got, want, err/math.Abs(want), s.Accuracy())
			}
		}
		// Estimates must be monotone in q.
		ests := s.Quantiles(sketchQs...)
		if !slices.IsSorted(ests) {
			t.Errorf("%s: quantile estimates not monotone: %v", name, ests)
		}
	}
}

// TestSketchMergeShardInvariance pins the order-independence contract: the
// same sample multiset sharded across any worker count, merged in any
// order and any association, yields bit-identical quantile answers.
func TestSketchMergeShardInvariance(t *testing.T) {
	xs := adversarialSamples("heavytail", 20000, 5)
	// Reference: one sequential sketch.
	ref := NewSketch()
	for _, x := range xs {
		ref.Add(x)
	}
	want := ref.Quantiles(sketchQs...)

	merge := func(parts []*Sketch, reverse bool) *Sketch {
		m := NewSketch()
		if reverse {
			for i := len(parts) - 1; i >= 0; i-- {
				m.Merge(parts[i])
			}
		} else {
			for _, p := range parts {
				m.Merge(p)
			}
		}
		return m
	}
	for _, workers := range []int{1, 2, 3, 8, 16} {
		parts := make([]*Sketch, workers)
		for i := range parts {
			parts[i] = NewSketch()
		}
		for i, x := range xs {
			parts[i%workers].Add(x) // round-robin sharding
		}
		for _, reverse := range []bool{false, true} {
			m := merge(parts, reverse)
			if m.N() != ref.N() || m.Min() != ref.Min() || m.Max() != ref.Max() {
				t.Fatalf("workers=%d reverse=%v: N/min/max diverged", workers, reverse)
			}
			got := m.Quantiles(sketchQs...)
			if !slices.Equal(got, want) {
				t.Errorf("workers=%d reverse=%v: quantiles %v != sequential %v", workers, reverse, got, want)
			}
		}
		// Pairwise merge tree (different association than the linear fold).
		for len(parts) > 1 {
			var next []*Sketch
			for i := 0; i < len(parts); i += 2 {
				if i+1 < len(parts) {
					parts[i].Merge(parts[i+1])
				}
				next = append(next, parts[i])
			}
			parts = next
		}
		if got := parts[0].Quantiles(sketchQs...); !slices.Equal(got, want) {
			t.Errorf("workers=%d tree merge: quantiles %v != sequential %v", workers, got, want)
		}
	}
}

// TestSketchExactMergeStaysExact: merging small sketches whose union fits
// the exact buffer keeps bit-exact answers regardless of merge order.
func TestSketchExactMergeStaysExact(t *testing.T) {
	r := rng.New(9)
	xs := make([]float64, 600)
	for i := range xs {
		xs[i] = r.Float64() * 1e6
	}
	a, b := NewSketch(), NewSketch()
	for i, x := range xs {
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	got := a.Quantiles(sketchQs...)
	want := Quantiles(xs, sketchQs...)
	if !slices.Equal(got, want) {
		t.Errorf("merged exact-mode quantiles diverged from exact: %v vs %v", got, want)
	}
}

func TestSketchZerosAndNegatives(t *testing.T) {
	s := NewSketch()
	xs := make([]float64, 0, 3000)
	r := rng.New(13)
	for i := 0; i < 3000; i++ {
		var x float64
		switch i % 3 {
		case 0:
			x = 0
		case 1:
			x = -math.Exp(r.NormFloat64())
		default:
			x = math.Exp(r.NormFloat64())
		}
		xs = append(xs, x)
		s.Add(x)
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	for _, q := range sketchQs {
		rank := int(math.Round(q * float64(len(sorted)-1)))
		want := sorted[rank]
		got := s.Quantile(q)
		if err := math.Abs(got - want); err > s.Accuracy()*math.Abs(want)+1e-9 {
			t.Errorf("q=%v: est %v vs rank value %v", q, got, want)
		}
	}
}

func TestSketchResetReuse(t *testing.T) {
	s := NewSketch()
	for i := 0; i < 5000; i++ {
		s.Add(float64(i))
	}
	s.Reset()
	if s.N() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("Reset incomplete")
	}
	fresh := NewSketch()
	for i := 0; i < 2000; i++ {
		s.Add(float64(i) * 1.5)
		fresh.Add(float64(i) * 1.5)
	}
	if got, want := s.Quantiles(sketchQs...), fresh.Quantiles(sketchQs...); !slices.Equal(got, want) {
		t.Errorf("reused sketch diverged from fresh: %v vs %v", got, want)
	}
	if s.Sum() != fresh.Sum() || s.Sum() != 1.5*1999*2000/2 {
		t.Errorf("Sum = %v (fresh %v), want %v", s.Sum(), fresh.Sum(), 1.5*1999*2000/2)
	}
}

func TestSketchPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("empty quantile", func() { NewSketch().Quantile(0.5) })
	expectPanic("NaN add", func() { NewSketch().Add(math.NaN()) })
	expectPanic("accuracy mismatch merge", func() {
		NewSketch().Merge(NewSketchAccuracy(0.05))
	})
	expectPanic("bad accuracy", func() { NewSketchAccuracy(1.5) })
	expectPanic("self merge", func() { s := NewSketch(); s.Merge(s) })
}

// TestSummaryMergeMatchesSequential checks the parallel-variance combine
// against a single sequential pass within floating-point tolerance.
func TestSummaryMergeMatchesSequential(t *testing.T) {
	r := rng.New(21)
	var seq Summary
	parts := make([]Summary, 4)
	for i := 0; i < 10000; i++ {
		x := r.NormFloat64()*50 + 10
		seq.Add(x)
		parts[i%4].Add(x)
	}
	var merged Summary
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged.N() != seq.N() || merged.Min() != seq.Min() || merged.Max() != seq.Max() {
		t.Fatal("N/min/max diverged")
	}
	if d := math.Abs(merged.Mean() - seq.Mean()); d > 1e-9 {
		t.Errorf("mean diverged by %v", d)
	}
	if d := math.Abs(merged.Std() - seq.Std()); d > 1e-9*seq.Std() {
		t.Errorf("std diverged by %v", d)
	}
	// Merging an empty summary is a no-op; merging into empty copies.
	var empty Summary
	before := merged
	merged.Merge(&empty)
	if merged != before {
		t.Error("merging empty changed the summary")
	}
	var dst Summary
	dst.Merge(&seq)
	if dst != seq {
		t.Error("merge into empty did not copy")
	}
}
