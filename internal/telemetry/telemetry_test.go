package telemetry

import (
	"math"
	"strings"
	"testing"

	"timedice/internal/vtime"
)

func TestKindStrings(t *testing.T) {
	for k := Kind(1); k < kindEnd; k++ {
		s := k.String()
		if strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no wire name", k)
		}
		if got := KindFromString(s); got != k {
			t.Errorf("KindFromString(%q) = %v, want %v", s, got, k)
		}
	}
	if got := KindFromString("nope"); got != 0 {
		t.Errorf("KindFromString(nope) = %v, want 0", got)
	}
	if s := Kind(200).String(); s != "Kind(200)" {
		t.Errorf("out-of-range kind string = %q", s)
	}
}

func TestRecorderMultiFilter(t *testing.T) {
	rec := NewRecorder()
	var misses int
	watch := NewFilter(Func(func(Event) { misses++ }), KindDeadlineMiss)
	sink := Multi{rec, watch}

	sink.Event(Event{Time: 1, Kind: KindTaskArrival, Partition: 0})
	sink.Event(Event{Time: 2, Kind: KindDeadlineMiss, Partition: 1})
	sink.Event(Event{Time: 3, Kind: KindSlice, Partition: -1})

	if rec.Len() != 3 {
		t.Errorf("recorder saw %d events, want 3", rec.Len())
	}
	if misses != 1 {
		t.Errorf("filter passed %d deadline misses, want 1", misses)
	}
	if rec.Events()[1].Kind != KindDeadlineMiss {
		t.Errorf("event order not preserved: %+v", rec.Events())
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Errorf("recorder not empty after Reset")
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(1.5)
	g.Set(0.25)
	if g.Value() != 0.25 {
		t.Errorf("gauge = %v, want 0.25", g.Value())
	}
}

// TestRegistryHistogramSmallDumps pins the dumps of histograms with no and
// one sample: an empty sketch cannot answer quantiles, so it dumps zeros,
// and a single sample is every statistic at once.
func TestRegistryHistogramSmallDumps(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty")
	r.Histogram("one").Add(2.5)

	var text strings.Builder
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	want := "histogram empty" + strings.Repeat(" ", 35) +
		" n=0 mean=0.000 min=0.000 p25=0.000 p50=0.000 p75=0.000 p90=0.000 p99=0.000 max=0.000\n" +
		"histogram one" + strings.Repeat(" ", 37) +
		" n=1 mean=2.500 min=2.500 p25=2.500 p50=2.500 p75=2.500 p90=2.500 p99=2.500 max=2.500\n"
	if text.String() != want {
		t.Errorf("text dump:\n%s\nwant:\n%s", text.String(), want)
	}

	var csv strings.Builder
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if len(lines) != 3 ||
		lines[1] != "histogram,empty,,0,0.000,0.000,0.000,0.000,0.000,0.000,0.000,0.000,0.000" ||
		lines[2] != "histogram,one,,1,2.500,2.500,2.500,2.500,2.500,2.500,2.500,2.500,2.500" {
		t.Errorf("csv dump:\n%s", csv.String())
	}
}

func TestRegistryDumps(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.total").Add(7)
	r.Gauge("b.util").Set(0.5)
	h := r.Histogram("c.lat")
	h.Add(5)
	h.Add(50)
	// Get-or-create: same instance on second lookup.
	if r.Histogram("c.lat") != h {
		t.Error("histogram lookup did not return the existing metric")
	}
	if r.Counter("a.total").Value() != 7 {
		t.Error("counter lookup did not return the existing metric")
	}

	var text strings.Builder
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(text.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("text dump has %d lines, want 3:\n%s", len(lines), text.String())
	}
	// Registration order, not alphabetical.
	for i, prefix := range []string{"counter   a.total", "gauge     b.util", "histogram c.lat"} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}

	var csv strings.Builder
	if err := r.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	csvLines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if csvLines[0] != "type,name,value,count,sum,mean,min,p25,p50,p75,p90,p99,max" {
		t.Errorf("csv header = %q", csvLines[0])
	}
	if len(csvLines) != 4 {
		t.Fatalf("csv dump has %d lines, want 4", len(csvLines))
	}
	if !strings.HasPrefix(csvLines[1], "counter,a.total,7,") {
		t.Errorf("csv counter line = %q", csvLines[1])
	}
	if !strings.HasPrefix(csvLines[3], "histogram,c.lat,,2,55.000,27.500,5.000,") {
		t.Errorf("csv histogram line = %q", csvLines[3])
	}
}

func TestCollectorCounts(t *testing.T) {
	coll := NewCollector(nil, []string{"A", "B"})
	ms := vtime.Millisecond
	for _, ev := range []Event{
		{Time: 0, Kind: KindDecision, Partition: 0, Aux: 2},
		{Time: 0, Kind: KindTaskArrival, Partition: 0, Task: "t", Job: 0},
		{Time: 0, Kind: KindSlice, Partition: 0, Dur: 2 * ms},
		{Time: vtime.Time(2 * ms), Kind: KindDecision, Partition: 1, Aux: 1},
		{Time: vtime.Time(2 * ms), Kind: KindInversionOpen, Partition: 1},
		{Time: vtime.Time(2 * ms), Kind: KindTaskComplete, Partition: 0, Task: "t", Job: 0, Dur: 2 * ms},
		{Time: vtime.Time(2 * ms), Kind: KindDeadlineMiss, Partition: 0, Task: "t", Job: 0, Dur: ms},
		{Time: vtime.Time(2 * ms), Kind: KindSlice, Partition: 1, Dur: ms},
		{Time: vtime.Time(3 * ms), Kind: KindInversionClose, Dur: ms},
		{Time: vtime.Time(3 * ms), Kind: KindDecision, Partition: -1},
		{Time: vtime.Time(3 * ms), Kind: KindSlice, Partition: -1, Dur: ms},
		{Time: vtime.Time(4 * ms), Kind: KindBudgetDeplete, Partition: 1, Aux: 1, Dur: ms},
		{Time: vtime.Time(4 * ms), Kind: KindBudgetReplenish, Partition: 1, Dur: 5 * ms, Aux: 5000},
	} {
		coll.Event(ev)
	}
	reg := coll.Registry()
	checks := []struct {
		name string
		want int64
	}{
		{"decisions.total", 3},
		{"decisions.idle", 1},
		{"switches.total", 3}, // 0 → 1 → idle, first decision counts too
		{"inversion.windows", 1},
		{"busy_us.total", 3000},
		{"idle_us.total", 1000},
		{"deadline_miss.total", 1},
		{"arrivals.A", 1},
		{"completions.A", 1},
		{"deadline_miss.A", 1},
		{"busy_us.A", 2000},
		{"busy_us.B", 1000},
		{"budget.depletions.B", 1},
		{"budget.replenish_us.B", 5000},
	}
	for _, c := range checks {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := reg.Histogram("inversion.len_us").N(); got != 1 {
		t.Errorf("inversion.len_us count = %d, want 1", got)
	}
	if got := reg.Histogram("response_us.A").N(); got != 1 {
		t.Errorf("response_us.A count = %d, want 1", got)
	}
	// B's slice runs [2ms, 3ms): cumulative 1 ms busy over the first 3 ms.
	if got := reg.Gauge("util.B").Value(); math.Abs(got-1.0/3.0) > 1e-9 {
		t.Errorf("util.B = %v, want 1/3", got)
	}
}
