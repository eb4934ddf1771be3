package timedice_test

import (
	"fmt"
	"io"
	"strings"

	"timedice"
)

// ExampleSystemSchedulable shows the offline precondition check.
func ExampleSystemSchedulable() {
	fmt.Println(timedice.SystemSchedulable(timedice.TableIBase()))
	fmt.Println(timedice.SystemSchedulable(timedice.Car()))
	// Output:
	// true
	// true
}

// ExampleReadSystem parses a JSON system definition.
func ExampleReadSystem() {
	spec, err := timedice.ReadSystem(strings.NewReader(`{
	  "name": "demo",
	  "partitions": [
	    {"name": "P1", "periodMillis": 20, "budgetMillis": 4,
	     "tasks": [{"name": "t1", "periodMillis": 40, "wcetMillis": 2}]}
	  ]
	}`))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s: %d partition(s), utilization %.0f%%\n",
		spec.Name, len(spec.Partitions), 100*spec.Utilization())
	// Output:
	// demo: 1 partition(s), utilization 20%
}

// ExampleWCRTTimeDice computes one task's worst-case response time under the
// randomized scheduler (Eq. 4 of the paper).
func ExampleWCRTTimeDice() {
	spec := timedice.TableIBase()
	fmt.Printf("%.1fms\n", timedice.WCRTTimeDice(spec, 0, 0).Milliseconds())
	// Output:
	// 34.8ms
}

// ExampleBimodalityScore scores budget-consumption series: a modulating
// covert sender is near 1, steady consumption is 0.
func ExampleBimodalityScore() {
	sender := []float64{4.8, 0.01, 4.8, 0.01, 4.8, 0.01, 4.8, 0.01}
	steady := []float64{3.2, 3.2, 3.2, 3.2, 3.2, 3.2, 3.2, 3.2}
	fmt.Printf("sender %.2f steady %.2f\n",
		timedice.BimodalityScore(sender), timedice.BimodalityScore(steady))
	// Output:
	// sender 1.00 steady 0.00
}

// ExampleAssignPriorities repairs an unschedulable declaration order.
func ExampleAssignPriorities() {
	spec, err := timedice.ReadSystem(strings.NewReader(`{
	  "name": "reversed",
	  "partitions": [
	    {"name": "slow", "periodMillis": 100, "budgetMillis": 40,
	     "tasks": [{"name": "s", "periodMillis": 100, "wcetMillis": 40}]},
	    {"name": "fast", "periodMillis": 10, "budgetMillis": 5,
	     "tasks": [{"name": "f", "periodMillis": 10, "wcetMillis": 5}]}
	  ]
	}`))
	if err != nil {
		fmt.Println(err)
		return
	}
	order, err := timedice.AssignPriorities(spec)
	if err != nil {
		fmt.Println(err)
		return
	}
	re, _ := timedice.ReorderSystem(spec, order)
	fmt.Println("top priority:", re.Partitions[0].Name)
	// Output:
	// top priority: fast
}

// ExampleSupplyBound evaluates the periodic resource model's worst-case
// supply — the TimeDice supply bound.
func ExampleSupplyBound() {
	B, T := timedice.MS(2), timedice.MS(10)
	for _, t := range []timedice.Duration{timedice.MS(16), timedice.MS(18), timedice.MS(28)} {
		fmt.Printf("sbf(%v) = %v\n", t, timedice.SupplyBound(B, T, t))
	}
	// Output:
	// sbf(16.000ms) = 0.000ms
	// sbf(18.000ms) = 2.000ms
	// sbf(28.000ms) = 4.000ms
}

// ExampleFig06 regenerates the paper's schedule-trace figure
// programmatically (output suppressed here; see cmd/timedice-sim for the
// rendered version).
func ExampleFig06() {
	res, err := timedice.Fig06(timedice.QuickScale(), io.Discard)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("TimeDice fragments the schedule:", res.TimeDiceSwitches > res.NoRandomSwitches)
	// Output:
	// TimeDice fragments the schedule: true
}
