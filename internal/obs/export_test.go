package obs

// Cap returns the recorder's window capacity.
func (r *Recorder) Cap() int { return len(r.buf) }
