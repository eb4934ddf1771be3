package covert

import "timedice/internal/vtime"

// deriveResponse estimates the receiver's response time from its execution
// vector alone: the end of the last micro-interval in which the receiver
// executed within the window. §III-d observes that the response time "can be
// derived from" the execution vector — which is why the learning-based
// receiver can only be more informed than the response-time receiver. The
// estimate is exact up to one micro-interval of quantization whenever the
// receiver's job finishes within its own window and its last execution
// belongs to that job.
func deriveResponse(vector []float64, window vtime.Duration) vtime.Duration {
	if len(vector) == 0 {
		return 0
	}
	micro := window / vtime.Duration(len(vector))
	last := -1
	for i, v := range vector {
		if v > 0.5 {
			last = i
		}
	}
	if last < 0 {
		return 0
	}
	return vtime.Duration(last+1) * micro
}
