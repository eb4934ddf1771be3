package stats

import (
	"fmt"
	"math"
	"slices"
)

// Sketch accuracy and capacity defaults. With α = 1% the bucket base is
// γ ≈ 1.0202, so 4096 buckets per sign span a dynamic range of γ^4096 ≈
// 10^35 — the collapse safety valve never fires on physically meaningful
// data (response times, accuracies, capacities).
const (
	// DefaultSketchAccuracy is the relative value-accuracy target α of
	// NewSketch: bucketed quantile estimates satisfy |est−x| ≤ α·|x|.
	DefaultSketchAccuracy = 0.01
	// sketchExactCap is the number of raw samples a sketch buffers before
	// spilling to logarithmic buckets. Below it, answers are exact and
	// bit-identical to Quantile/Quantiles.
	sketchExactCap = 1024
	// sketchMaxBins bounds each sign's bucket store; exceeding it collapses
	// the lowest-magnitude buckets (a documented safety valve, see ensure).
	sketchMaxBins = 4096
)

// Sketch is a streaming quantile estimator with bounded memory: a
// logarithmic-bucket histogram (DDSketch-style) with an exact small-N
// fallback. It backs the latency histograms that grow with run length —
// the engine's policy-decision latency, the telemetry registry's
// histograms and the campaign CLIs' per-trial wall-clock times — so their
// memory stays constant however long a process runs.
//
// Two properties drive the design, both load-bearing for the repo's
// determinism contract:
//
//   - Exact small-N fallback: until more than sketchExactCap samples are
//     seen, the raw samples are retained and every quantile query is
//     bit-identical to Quantile/Quantiles on the same multiset.
//   - Order-independent buckets: a sample's bucket is a pure function of
//     its value, never of insertion order or of the sketch's current state
//     (unlike P² or t-digest centroids), so the same multiset added in any
//     order yields the same quantile answers.
//
// Once spilled to buckets, a quantile estimate returns the representative
// value of the bucket containing the requested order statistic, giving
// relative value error ≤ α (the accuracy passed to NewSketchAccuracy) for
// the value at a rank within rounding (±½) of q·(n−1). Zero is stored
// exactly; negative values use a mirrored store.
//
// The zero Sketch is not usable; construct with NewSketch or
// NewSketchAccuracy.
type Sketch struct {
	alpha       float64
	gamma       float64 // (1+α)/(1−α)
	invLogGamma float64 // 1/ln(γ)

	// exact holds raw samples until the sketch spills; empty afterwards,
	// keeping its capacity so a Reset sketch refills without allocating.
	exact   []float64
	spilled bool

	pos, neg sketchStore // buckets for x>0 and x<0 (mirrored)
	zeros    int64
	count    int64
	sum      float64
	min, max float64
}

// NewSketch returns a sketch with the default 1% relative accuracy.
func NewSketch() *Sketch { return NewSketchAccuracy(DefaultSketchAccuracy) }

// NewSketchAccuracy returns a sketch with relative value-accuracy target
// alpha, 0 < alpha < 1.
func NewSketchAccuracy(alpha float64) *Sketch {
	if !(alpha > 0 && alpha < 1) {
		panic(fmt.Sprintf("stats: sketch accuracy %v outside (0,1)", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Sketch{
		alpha:       alpha,
		gamma:       gamma,
		invLogGamma: 1 / math.Log(gamma),
	}
}

// Accuracy returns the relative value-accuracy target α.
func (s *Sketch) Accuracy() float64 { return s.alpha }

// N returns the number of observations.
func (s *Sketch) N() int64 { return s.count }

// Min returns the smallest observation (0 with no samples).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 with no samples).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Sum returns the running total of all observations (0 with no samples),
// accumulated in Add order from the raw values rather than bucket
// representatives.
func (s *Sketch) Sum() float64 { return s.sum }

// Add records one observation. NaN is rejected with a panic: it has no
// order statistic and would poison the store silently.
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) {
		panic("stats: Sketch.Add(NaN)")
	}
	if s.count == 0 || x < s.min {
		s.min = x
	}
	if s.count == 0 || x > s.max {
		s.max = x
	}
	s.count++
	s.sum += x
	if !s.spilled {
		s.exact = append(s.exact, x)
		if len(s.exact) > sketchExactCap {
			s.spill()
		}
		return
	}
	s.bucketAdd(x, 1)
}

// spill moves every buffered sample into the bucket stores. Each sample is
// bucketized independently, so the final bucket contents are the same
// whether a sample arrived before or after the spill point.
func (s *Sketch) spill() {
	for _, x := range s.exact {
		s.bucketAdd(x, 1)
	}
	s.exact = s.exact[:0]
	s.spilled = true
}

func (s *Sketch) bucketAdd(x float64, n int64) {
	switch {
	case x == 0:
		s.zeros += n
	case x > 0:
		s.pos.add(s.indexOf(x), n)
	default:
		s.neg.add(s.indexOf(-x), n)
	}
}

// indexOf maps a positive value to its bucket index: the unique i with
// γ^(i−1) < x ≤ γ^i.
func (s *Sketch) indexOf(x float64) int {
	return int(math.Ceil(math.Log(x) * s.invLogGamma))
}

// valueOf returns bucket i's representative value 2γ^i/(γ+1), the point
// minimizing the worst-case relative error over the bucket's range.
func (s *Sketch) valueOf(i int) float64 {
	return 2 * math.Pow(s.gamma, float64(i)) / (s.gamma + 1)
}

// Quantile returns the estimated q-quantile (0 ≤ q ≤ 1). While the sketch
// holds ≤ sketchExactCap samples the answer is bit-identical to
// Quantile(samples, q); afterwards it carries the documented ≤ α relative
// value error. Panics on an empty sketch, mirroring Quantile.
func (s *Sketch) Quantile(q float64) float64 {
	return s.Quantiles(q)[0]
}

// Quantiles returns the estimates for each q in qs with one pass.
func (s *Sketch) Quantiles(qs ...float64) []float64 {
	if s.count == 0 {
		panic("stats: Quantile of empty sketch")
	}
	out := make([]float64, len(qs))
	if !s.spilled {
		sorted := make([]float64, len(s.exact))
		copy(sorted, s.exact)
		slices.Sort(sorted)
		for i, q := range qs {
			out[i] = quantileSorted(sorted, q)
		}
		return out
	}
	for i, q := range qs {
		out[i] = s.bucketQuantile(q)
	}
	return out
}

// bucketQuantile walks the stores in value order — negatives from most to
// least negative, then zeros, then positives ascending — to the bucket
// containing the requested order statistic.
func (s *Sketch) bucketQuantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Round(q * float64(s.count-1))) // 0-based order statistic
	var cum int64
	// Negative store: bucket index i holds values with γ^(i−1) < −x ≤ γ^i,
	// so larger i means more negative; walk indices descending.
	for j := len(s.neg.counts) - 1; j >= 0; j-- {
		c := s.neg.counts[j]
		if c == 0 {
			continue
		}
		cum += c
		if cum > rank {
			return clamp(-s.valueOf(s.neg.offset+j), s.min, s.max)
		}
	}
	cum += s.zeros
	if cum > rank {
		return 0
	}
	for j, c := range s.pos.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum > rank {
			return clamp(s.valueOf(s.pos.offset+j), s.min, s.max)
		}
	}
	// Unreachable when counts are consistent; fall back to the maximum.
	return s.max
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Reset restores the empty state, retaining capacity. A reset sketch is
// indistinguishable from a fresh one with the same accuracy.
func (s *Sketch) Reset() {
	s.exact = s.exact[:0]
	s.spilled = false
	s.pos.reset()
	s.neg.reset()
	s.zeros = 0
	s.count = 0
	s.sum = 0
	s.min = 0
	s.max = 0
}

// sketchStore is one sign's contiguous bucket-count window: counts[j] is
// the count of bucket index offset+j.
type sketchStore struct {
	counts []int64
	offset int
}

func (st *sketchStore) reset() {
	st.counts = st.counts[:0]
	st.offset = 0
}

func (st *sketchStore) add(idx int, n int64) {
	st.ensure(idx)
	st.counts[idx-st.offset] += n
}

// ensure grows the window to include bucket idx, collapsing the
// lowest-magnitude buckets if the window would exceed sketchMaxBins.
func (st *sketchStore) ensure(idx int) {
	if len(st.counts) == 0 {
		st.offset = idx
		st.counts = append(st.counts, 0)
		return
	}
	if idx < st.offset {
		gap := st.offset - idx
		st.counts = append(st.counts, make([]int64, gap)...)
		copy(st.counts[gap:], st.counts[:len(st.counts)-gap])
		for j := 0; j < gap; j++ {
			st.counts[j] = 0
		}
		st.offset = idx
	}
	if top := st.offset + len(st.counts); idx >= top {
		st.counts = append(st.counts, make([]int64, idx-top+1)...)
	}
	if len(st.counts) > sketchMaxBins {
		// Safety valve: fold everything below the cut into the lowest kept
		// bucket. Only reachable at >10^35 dynamic range under the default
		// accuracy.
		cut := len(st.counts) - sketchMaxBins
		var folded int64
		for j := 0; j < cut; j++ {
			folded += st.counts[j]
		}
		st.counts = st.counts[:copy(st.counts, st.counts[cut:])]
		st.offset += cut
		st.counts[0] += folded
	}
}
