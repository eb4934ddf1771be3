package rng

import "testing"

// weightedIndex is the linear weighted draw, the oracle CumulativeIndex is
// pinned against: it sums the positive weights, scales one Float64 draw by
// the total, and scans a second running sum for the first index whose sum
// passes the target. Non-positive weights count as zero; with no positive
// weight it draws uniformly, and when float slack carries the target past
// the last sum it returns the last positive-weight index.
func weightedIndex(r *Rand, w []float64) int {
	if len(w) == 0 {
		panic("rng: weightedIndex with empty weights")
	}
	var total float64
	for _, x := range w {
		if x > 0 {
			total += x
		}
	}
	if total <= 0 {
		return r.Intn(len(w))
	}
	return linearIndex(w, r.Float64()*total)
}

// linearIndex is weightedIndex's scan for a given target.
func linearIndex(w []float64, target float64) int {
	var acc float64
	for i, x := range w {
		if x <= 0 {
			continue
		}
		acc += x
		if target < acc {
			return i
		}
	}
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	return len(w) - 1
}

// runningSums returns the running sums of w, added in order.
func runningSums(w []float64) []float64 {
	cum := make([]float64, len(w))
	var acc float64
	for i, x := range w {
		acc += x
		cum[i] = acc
	}
	return cum
}

// drawWeights fills a weight vector of length n the way a TimeDiceW lottery
// does: utilizations in [0, 1), runs of zero weights of random length, and
// an idle weight last that may be exactly zero.
func drawWeights(r *Rand, n int) []float64 {
	w := make([]float64, n)
	for i := 0; i < n; {
		if r.Intn(4) == 0 {
			run := 1 + r.Intn(8)
			for ; run > 0 && i < n; run-- {
				w[i] = 0
				i++
			}
			continue
		}
		w[i] = r.Float64() / float64(1+r.Intn(64))
		i++
	}
	if r.Intn(3) == 0 {
		w[n-1] = 0 // an idle weight clamped at zero
	}
	return w
}

// TestCumulativeIndexMatchesLinear pins the bisected draw to the linear
// oracle: on the same stream position both must return the same index and
// leave the generator at the same place, for lengths 1–1025 with runs of
// zero weights, an idle weight of zero, and all-zero vectors (the Intn path).
func TestCumulativeIndexMatchesLinear(t *testing.T) {
	gen := New(0xcafe)
	for n := 1; n <= 1025; n++ {
		for trial := 0; trial < 4; trial++ {
			w := drawWeights(gen, n)
			if trial == 3 {
				clear(w)
			}
			cum := runningSums(w)
			seed := gen.Uint64()
			a, b := New(seed), New(seed)
			want, got := weightedIndex(a, w), b.CumulativeIndex(cum)
			if got != want {
				t.Fatalf("n=%d trial %d: CumulativeIndex = %d, linear oracle = %d", n, trial, got, want)
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("n=%d trial %d: the draws consumed different amounts of the stream", n, trial)
			}
		}
	}
}

// TestSearchCumulativeTargets pins the bisection at the scan's boundaries: a
// target exactly equal to each running sum (the draw moves past it, to the
// next weight that raises the sum), a target of zero, and targets at or past
// the total (the float-slack fallback).
func TestSearchCumulativeTargets(t *testing.T) {
	gen := New(7)
	for _, n := range []int{1, 2, 3, 7, 64, 385, 1025} {
		for trial := 0; trial < 20; trial++ {
			w := drawWeights(gen, n)
			w[gen.Intn(n)] = 0.5 // at least one positive weight
			cum := runningSums(w)
			total := cum[n-1]
			targets := []float64{0, total, total * 2}
			targets = append(targets, cum...)
			for _, target := range targets {
				if got, want := searchCumulative(cum, target), linearIndex(w, target); got != want {
					t.Fatalf("n=%d weights %v target %v: bisection %d, scan %d", n, w, target, got, want)
				}
			}
		}
	}
}

// TestCumulativeIndexPanicsOnEmpty keeps the empty-slice contract.
func TestCumulativeIndexPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CumulativeIndex(nil) should panic")
		}
	}()
	New(1).CumulativeIndex(nil)
}

// drawSink keeps the benchmarked draws observable.
var drawSink int

// BenchmarkWeightedDraw times one weighted draw over 385 weights, about a
// dense-P1024 TimeDiceW lottery's candidate count: the bisected draw over
// prebuilt running sums, against the linear oracle that sums and scans the
// weights.
func BenchmarkWeightedDraw(b *testing.B) {
	const n = 385
	w := drawWeights(New(1), n)
	cum := runningSums(w)
	for _, bc := range []struct {
		name string
		draw func(r *Rand) int
	}{
		{"cumulative", func(r *Rand) int { return r.CumulativeIndex(cum) }},
		{"linear", func(r *Rand) int { return weightedIndex(r, w) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := New(2)
			for i := 0; i < b.N; i++ {
				drawSink += bc.draw(r)
			}
		})
	}
}
