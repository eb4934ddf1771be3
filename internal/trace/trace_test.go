package trace

import (
	"strings"
	"testing"

	"timedice/internal/engine"
	"timedice/internal/vtime"
)

func seg(start, end int64, p int) engine.Segment {
	return engine.Segment{Start: vtime.Time(vtime.MS(start)), End: vtime.Time(vtime.MS(end)), Partition: p}
}

func TestRecorderCoalesces(t *testing.T) {
	r := NewRecorder(0, 0)
	hook := r.Hook()
	hook(seg(0, 1, 0))
	hook(seg(1, 2, 0)) // same partition, contiguous → coalesce
	hook(seg(2, 3, 1))
	hook(seg(5, 6, 1)) // gap → new segment
	if len(r.Segments) != 3 {
		t.Fatalf("segments = %d, want 3: %v", len(r.Segments), r.Segments)
	}
	if r.Segments[0].End != vtime.Time(vtime.MS(2)) {
		t.Error("coalescing failed")
	}
}

func TestRecorderWindow(t *testing.T) {
	r := NewRecorder(vtime.Time(vtime.MS(10)), vtime.Time(vtime.MS(20)))
	hook := r.Hook()
	hook(seg(0, 5, 0))   // before window
	hook(seg(12, 15, 0)) // inside
	hook(seg(25, 30, 0)) // after
	if len(r.Segments) != 1 || r.Segments[0].Start != vtime.Time(vtime.MS(12)) {
		t.Fatalf("window filtering: %v", r.Segments)
	}
}

func TestGantt(t *testing.T) {
	r := NewRecorder(0, 0)
	hook := r.Hook()
	hook(seg(0, 2, 0))
	hook(seg(2, 5, 1))
	hook(seg(5, 10, -1))
	out := r.Gantt([]string{"P1", "P2"}, vtime.Millisecond)
	if !strings.Contains(out, "P1 |##........|") {
		t.Errorf("P1 row wrong:\n%s", out)
	}
	if !strings.Contains(out, "P2 |..###.....|") {
		t.Errorf("P2 row wrong:\n%s", out)
	}
	empty := NewRecorder(0, 0)
	if empty.Gantt([]string{"P"}, vtime.Millisecond) != "(empty trace)\n" {
		t.Error("empty gantt")
	}
}

func TestCSV(t *testing.T) {
	r := NewRecorder(0, 0)
	hook := r.Hook()
	hook(seg(0, 2, 0))
	csv := r.CSV()
	if !strings.HasPrefix(csv, "start_us,end_us,partition\n") || !strings.Contains(csv, "0,2000,0\n") {
		t.Errorf("csv = %q", csv)
	}
}

func TestHeatmap(t *testing.T) {
	vectors := [][]float64{{1, 0, 1}, {0, 1, 0}}
	labels := []int{0, 1}
	out := Heatmap(vectors, labels, 10)
	want := "X=0 |#.#|\nX=1 |.#.|\n"
	if out != want {
		t.Errorf("heatmap = %q, want %q", out, want)
	}
	capped := Heatmap(vectors, labels, 1)
	if strings.Count(capped, "\n") != 1 {
		t.Error("maxRows not honored")
	}
}

func TestHeatmapDensityAndDistance(t *testing.T) {
	vectors := [][]float64{
		{1, 1, 0, 0},
		{1, 1, 0, 0},
		{0, 0, 1, 1},
		{0, 0, 1, 1},
	}
	labels := []int{0, 0, 1, 1}
	d0, d1 := HeatmapDensity(vectors, labels)
	if d0[0] != 1 || d0[2] != 0 || d1[0] != 0 || d1[2] != 1 {
		t.Errorf("densities: %v %v", d0, d1)
	}
	if got := DensityDistance(d0, d1); got != 1 {
		t.Errorf("distance = %v, want 1 (maximally distinguishable)", got)
	}
	if got := DensityDistance(d0, d0); got != 0 {
		t.Errorf("self distance = %v", got)
	}
	if DensityDistance(nil, nil) != 0 {
		t.Error("nil distance")
	}
}
