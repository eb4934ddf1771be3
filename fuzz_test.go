package timedice_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"timedice"
)

// FuzzNewSystem drives the public facade end to end: any system document
// ReadSystem accepts, under any policy kind, seed and WithPolicyQuantum
// value, is either refused by NewSystem with an error or runs 50 simulated
// milliseconds without panicking, with busy and idle time tiling the clock.
// A watchdog turns an input that stalls the simulation into a reported
// crash instead of a silent hang.
func FuzzNewSystem(f *testing.F) {
	two := `{"name":"two","partitions":[` +
		`{"name":"P0","periodMillis":10,"budgetMillis":2,"tasks":[{"name":"a","periodMillis":10,"wcetMillis":2}]},` +
		`{"name":"P1","periodMillis":20,"budgetMillis":4,"server":"sporadic","tasks":[{"name":"b","periodMillis":20,"wcetMillis":6}]}]}`
	for kind := uint8(0); kind <= 5; kind++ {
		f.Add(two, kind, uint64(kind), int64(1000))
	}
	f.Add(two, uint8(3), uint64(7), int64(1))
	f.Add(two, uint8(2), uint64(7), int64(-5))
	f.Add(`{"name":"one","partitions":[{"name":"P","periodMillis":1,"budgetMillis":1,"server":"deferrable","tasks":[]}]}`, uint8(3), uint64(1), int64(0))
	f.Fuzz(func(t *testing.T, doc string, kind uint8, seed uint64, quantum int64) {
		spec, err := timedice.ReadSystem(strings.NewReader(doc))
		if err != nil {
			return
		}
		sys, err := timedice.NewSystem(spec, timedice.PolicyKind(kind%6), seed,
			timedice.WithPolicyQuantum(timedice.Duration(quantum)))
		if err != nil {
			return
		}
		watchdog := time.AfterFunc(3*time.Second, func() {
			panic(fmt.Sprintf("FuzzNewSystem: 50 simulated ms ran past 3s (kind %d, seed %d, quantum %d)\ninput: %q",
				kind%6, seed, quantum, doc))
		})
		defer watchdog.Stop()
		horizon := timedice.Time(50 * timedice.Millisecond)
		sys.Run(horizon)
		if c := sys.Counters; sys.Now() != horizon || c.BusyTime+c.IdleTime != timedice.Duration(horizon) {
			t.Fatalf("ran to %v with busy %v + idle %v, want %v tiled", sys.Now(), c.BusyTime, c.IdleTime, horizon)
		}
	})
}
