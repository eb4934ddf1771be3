package ml

import (
	"testing"

	"timedice/internal/rng"
)

// execVectors draws n covert-like execution vectors of dim micro-intervals:
// coordinate d is 1 when the receiver ran in micro-interval d. The receiver
// runs from the window start until its response time, which the sender's
// symbol delays by a fifth of the window, and a tenth of the intervals flip
// as interference from the other partitions.
func execVectors(r *rng.Rand, n, dim int) (xs [][]float64, ys []int) {
	for i := 0; i < n; i++ {
		y := r.Bit()
		resp := dim/3 + r.Intn(dim/3+1) + y*dim/5
		x := make([]float64, dim)
		for d := range x {
			run := d < resp
			if r.Bool(0.1) {
				run = !run
			}
			if run {
				x[d] = 1
			}
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

// decoderSizes are the receiver's training and test set sizes at the
// experiments' quick and full scales.
var decoderSizes = []struct {
	name        string
	train, test int
}{
	{"quick", 320, 600},
	{"full", 2000, 10000},
}

// benchDecoder times one train on execution vectors of dim 150 plus one
// prediction per test vector, and reports the accuracy.
func benchDecoder(b *testing.B, tr Trainer) {
	for _, sz := range decoderSizes {
		b.Run(sz.name, func(b *testing.B) {
			r := rng.New(1)
			xs, ys := execVectors(r, sz.train, 150)
			tx, ty := execVectors(r, sz.test, 150)
			var acc float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clf, err := tr.Train(xs, ys)
				if err != nil {
					b.Fatal(err)
				}
				acc = Accuracy(clf, tx, ty)
			}
			b.ReportMetric(acc, "accuracy")
		})
	}
}

func BenchmarkSVMExecutionVectors(b *testing.B) { benchDecoder(b, SVM{}) }

func BenchmarkKNNExecutionVectors(b *testing.B) { benchDecoder(b, KNN{}) }
