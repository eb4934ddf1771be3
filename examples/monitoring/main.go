// Monitoring is the system integrator's console: the telemetry event stream
// feeds live deadline-miss and inversion-window monitors, and a consumption
// monitor watches every partition's budget usage for covert-sender
// signatures — with TimeDice randomizing the schedule underneath. Defense in
// depth: TimeDice degrades the covert channel, and the monitor identifies
// who was trying to use it.
package main

import (
	"fmt"
	"os"

	"timedice"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	spec := timedice.TableIBase()
	// Make P2 a covert sender: one task that alternates between consuming
	// its full budget and almost nothing, every 150 ms window.
	window := timedice.MS(150)
	spec.Partitions[1].Tasks = []timedice.TaskSpec{{
		Name: "exfil", Period: timedice.MS(50), WCET: spec.Partitions[1].Budget,
	}}

	// Live monitors fed by the structured event stream: every deadline miss
	// and every priority-inversion window the engine opens arrives here as a
	// typed event the moment it happens — no post-processing pass needed.
	misses := map[int]int{}
	var inversions int
	var inversionTime timedice.Duration
	watch := timedice.TelemetryFunc(func(ev timedice.TelemetryEvent) {
		switch ev.Kind {
		case timedice.EventDeadlineMiss:
			misses[ev.Partition]++
		case timedice.EventInversionOpen:
			inversions++
		case timedice.EventInversionClose:
			inversionTime += ev.Dur
		}
	})

	sys, built, err := timedice.NewBuiltSystem(spec, timedice.TimeDiceW, 4,
		timedice.WithTelemetry(watch))
	if err != nil {
		return err
	}
	budget := spec.Partitions[1].Budget
	built.Task["P2/exfil"].ExecFn = func(_ int64, arrival timedice.Time) timedice.Duration {
		if (arrival/timedice.Time(window))%2 == 1 {
			return budget
		}
		return timedice.US(10)
	}

	// The monitor: budget-consumption observer over the whole run.
	mon := timedice.NewConsumptionObserver(spec)
	sys.TraceFn = mon.Hook()

	sys.Run(timedice.Time(60 * timedice.Second))
	sys.FlushTelemetry() // close any inversion window still open at the horizon

	fmt.Println("Integrator's console after 60 simulated seconds under TimeDiceW:")
	totalMisses := 0
	for _, n := range misses {
		totalMisses += n
	}
	fmt.Printf("  deadline monitor: %d misses", totalMisses)
	if totalMisses > 0 {
		for i := range spec.Partitions {
			if misses[i] > 0 {
				fmt.Printf("  %s:%d", spec.Partitions[i].Name, misses[i])
			}
		}
	}
	fmt.Println()
	fmt.Printf("  inversion monitor: %d schedulability-preserving inversion windows, %v total (%.1f%% of run)\n",
		inversions, inversionTime, 100*inversionTime.Seconds()/60)
	fmt.Println("  covert-sender scores (budget-modulation bimodality):")
	for _, r := range mon.Rank() {
		flag := ""
		if r.Score > 0.75 {
			flag = "  <-- FLAGGED"
		}
		fmt.Printf("    %-4s %.3f%s\n", r.Partition, r.Score, flag)
	}
	return nil
}
