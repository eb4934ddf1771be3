// Package trace records and renders schedule traces: the raw segment log, an
// ASCII Gantt chart like the paper's Fig. 6, execution-vector heatmaps like
// Figs. 4(b) and 13, and CSV export for external plotting.
package trace

import (
	"fmt"
	"strings"

	"timedice/internal/engine"
	"timedice/internal/vtime"
)

// Recorder collects schedule segments from an engine.System via its TraceFn
// hook. Consecutive segments of the same partition are coalesced.
type Recorder struct {
	Segments []engine.Segment
	// Keep bounds recording to a window to cap memory on long runs;
	// zero values record everything.
	From, Until vtime.Time
}

// NewRecorder records segments overlapping [from, until); until==0 means no
// upper bound.
func NewRecorder(from, until vtime.Time) *Recorder {
	return &Recorder{From: from, Until: until}
}

// Hook returns the function to install as engine.System.TraceFn.
func (r *Recorder) Hook() func(engine.Segment) {
	return func(seg engine.Segment) {
		if seg.End <= r.From {
			return
		}
		if r.Until > 0 && seg.Start >= r.Until {
			return
		}
		if n := len(r.Segments); n > 0 {
			last := &r.Segments[n-1]
			if last.Partition == seg.Partition && last.End == seg.Start {
				last.End = seg.End
				return
			}
		}
		r.Segments = append(r.Segments, seg)
	}
}

// Gantt renders the recorded window as one text row per partition, one
// column per cell of the given duration — the textual analogue of Fig. 6.
// A cell is marked '#' when the partition ran for the majority of the cell.
func (r *Recorder) Gantt(names []string, cell vtime.Duration) string {
	if len(r.Segments) == 0 {
		return "(empty trace)\n"
	}
	start := r.Segments[0].Start
	end := r.Segments[len(r.Segments)-1].End
	n := int(vtime.CeilDiv(end.Sub(start), cell))
	if n <= 0 {
		return "(empty trace)\n"
	}
	const maxCells = 4000
	if n > maxCells {
		n = maxCells
		end = start.Add(vtime.Duration(n) * cell)
	}
	rows := make([][]vtime.Duration, len(names))
	for i := range rows {
		rows[i] = make([]vtime.Duration, n)
	}
	for _, seg := range r.Segments {
		if seg.Partition < 0 || seg.Partition >= len(names) {
			continue
		}
		s, e := seg.Start, seg.End
		if e > end {
			e = end
		}
		for t := s; t < e; {
			ci := int(t.Sub(start) / cell)
			cellEnd := start.Add(vtime.Duration(ci+1) * cell)
			chunk := e.Min(cellEnd).Sub(t)
			rows[seg.Partition][ci] += chunk
			t = t.Add(chunk)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "time: %v .. %v, cell = %v\n", start, end, cell)
	width := 0
	for _, nm := range names {
		if len(nm) > width {
			width = len(nm)
		}
	}
	for i, nm := range names {
		fmt.Fprintf(&sb, "%-*s |", width, nm)
		for _, d := range rows[i] {
			switch {
			case d > cell/2:
				sb.WriteByte('#')
			case d > 0:
				sb.WriteByte('+')
			default:
				sb.WriteByte('.')
			}
		}
		sb.WriteString("|\n")
	}
	return sb.String()
}

// CSV exports the segments as "start_us,end_us,partition" rows.
func (r *Recorder) CSV() string {
	var sb strings.Builder
	sb.WriteString("start_us,end_us,partition\n")
	for _, s := range r.Segments {
		fmt.Fprintf(&sb, "%d,%d,%d\n", int64(s.Start), int64(s.End), s.Partition)
	}
	return sb.String()
}

// Heatmap renders execution vectors (one row per monitoring window, one
// column per micro-interval) in the style of Figs. 4(b)/13: '#' where the
// receiver executed, '.' where it did not. labels[i] annotates row i with the
// sender's bit. maxRows caps the output.
func Heatmap(vectors [][]float64, labels []int, maxRows int) string {
	var sb strings.Builder
	rows := len(vectors)
	if maxRows > 0 && rows > maxRows {
		rows = maxRows
	}
	for i := 0; i < rows; i++ {
		if i < len(labels) {
			fmt.Fprintf(&sb, "X=%d |", labels[i])
		} else {
			sb.WriteString("    |")
		}
		for _, v := range vectors[i] {
			if v > 0.5 {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteString("|\n")
	}
	return sb.String()
}

// HeatmapDensity summarizes, for each micro-interval column, the fraction of
// windows in which the receiver executed, split by the sender's bit. The two
// resulting profiles quantify how distinguishable the bits are: under
// NoRandom they differ markedly (Fig. 4b), under TimeDice they converge
// (Fig. 13).
func HeatmapDensity(vectors [][]float64, labels []int) (d0, d1 []float64) {
	if len(vectors) == 0 {
		return nil, nil
	}
	m := len(vectors[0])
	d0 = make([]float64, m)
	d1 = make([]float64, m)
	var n0, n1 int
	for i, v := range vectors {
		if labels[i] == 0 {
			n0++
			for j := range v {
				d0[j] += v[j]
			}
		} else {
			n1++
			for j := range v {
				d1[j] += v[j]
			}
		}
	}
	for j := 0; j < m; j++ {
		if n0 > 0 {
			d0[j] /= float64(n0)
		}
		if n1 > 0 {
			d1[j] /= float64(n1)
		}
	}
	return d0, d1
}

// DensityDistance returns the mean absolute difference between two density
// profiles — a scalar "distinguishability" score for heatmap comparisons.
func DensityDistance(d0, d1 []float64) float64 {
	if len(d0) == 0 || len(d0) != len(d1) {
		return 0
	}
	var sum float64
	for i := range d0 {
		diff := d0[i] - d1[i]
		if diff < 0 {
			diff = -diff
		}
		sum += diff
	}
	return sum / float64(len(d0))
}
