package obs

import (
	"timedice/internal/telemetry"
)

// DefaultRecorderWindow is the flight-recorder depth campaign CLIs attach
// per worker: deep enough to span several partition periods of context
// before a failure, small enough (~64 B/event) to be negligible per worker.
const DefaultRecorderWindow = 8192

// Recorder is a bounded flight recorder: a telemetry.Sink that retains the
// most recent events in a fixed-capacity ring buffer. Unlike
// telemetry.Recorder (which appends forever and is meant for whole-run
// exports), a Recorder's memory is constant and its steady-state emission
// path performs no allocation — the zero-alloc engine-stepping pins hold
// with one attached (see TestEngineStepRecorderZeroAlloc).
//
// A Recorder is not goroutine-safe; attach one per simulated system, like
// any other sink.
type Recorder struct {
	buf   []telemetry.Event
	next  int    // ring slot the next event is written to
	fill  int    // number of valid events in buf (≤ len(buf))
	total uint64 // events ever observed, including overwritten ones
}

// NewRecorder returns a flight recorder retaining the last window events.
// window < 1 is treated as DefaultRecorderWindow.
func NewRecorder(window int) *Recorder {
	if window < 1 {
		window = DefaultRecorderWindow
	}
	return &Recorder{buf: make([]telemetry.Event, window)}
}

// Event implements telemetry.Sink. It overwrites the oldest retained event
// once the window is full and never allocates.
func (r *Recorder) Event(e telemetry.Event) {
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.fill < len(r.buf) {
		r.fill++
	}
	r.total++
}

// Len returns the number of events currently retained (at most the window).
func (r *Recorder) Len() int { return r.fill }

// Total returns the number of events ever observed, including those already
// overwritten.
func (r *Recorder) Total() uint64 { return r.total }

// Dropped returns how many observed events have been overwritten and are no
// longer in the window.
func (r *Recorder) Dropped() uint64 { return r.total - uint64(r.fill) }

// Window copies the retained events out in emission order (oldest first).
// It allocates; call it only at dump time, never on the hot path.
func (r *Recorder) Window() []telemetry.Event {
	out := make([]telemetry.Event, 0, r.fill)
	if r.fill == len(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf[:r.fill]...)
}

// Reset empties the window (keeping its capacity) so the recorder can be
// reused for the next trial. The total/dropped tallies are zeroed too.
func (r *Recorder) Reset() {
	r.next, r.fill, r.total = 0, 0, 0
}
