package timedice

import (
	"io"
	"testing"

	"timedice/internal/core"
	"timedice/internal/covert"
	"timedice/internal/engine"
	"timedice/internal/experiments"
	"timedice/internal/ml"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/server"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

// benchScale keeps per-iteration experiment cost small; the harnesses accept
// any scale, so `go run ./cmd/covertbench -scale full` reproduces
// paper-scale numbers with the same code paths.
func benchScale() experiments.Scale {
	return experiments.Scale{ProfileWindows: 64, TestWindows: 128, SimSeconds: 2, Seed: 1}
}

// --- One benchmark per table/figure of the paper ---

// BenchmarkFig04Distributions regenerates Fig. 4(a): the receiver's Pr(R)
// and Pr(R|X) response-time distributions under NoRandom.
func BenchmarkFig04Distributions(b *testing.B) {
	var sep float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig04(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		sep = res.Separation
	}
	b.ReportMetric(sep, "separation")
}

// BenchmarkFig04Heatmap regenerates Fig. 4(b): execution-vector heatmaps.
func BenchmarkFig04Heatmap(b *testing.B) {
	var dist float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig04(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		dist = res.DensityDistance
	}
	b.ReportMetric(dist, "densityDist")
}

// BenchmarkFig04Accuracy regenerates Fig. 4(c): channel accuracy vs
// profiling effort under NoRandom, base and light load.
func BenchmarkFig04Accuracy(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig04(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy[len(res.Accuracy)-1].RTAccuracy
	}
	b.ReportMetric(100*acc, "acc%")
}

// BenchmarkCarChannel regenerates the §III-e motivating scenario on the
// Fig. 5 car platform (and its §V-B1 TimeDice follow-up).
func BenchmarkCarChannel(b *testing.B) {
	var nr, td float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.CarChannel(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		nr, td = res.NoRandomAccuracy, res.TimeDiceAccuracy
	}
	b.ReportMetric(100*nr, "NoRandom-acc%")
	b.ReportMetric(100*td, "TimeDice-acc%")
}

// BenchmarkFig06Trace regenerates the Fig. 6 schedule traces.
func BenchmarkFig06Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig06(benchScale(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12Mitigation regenerates Fig. 12: accuracy under NoRandom /
// TimeDiceU / TimeDiceW × base/light load × both receivers.
func BenchmarkFig12Mitigation(b *testing.B) {
	var nr, tdw float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		c1, _ := res.Cell(policies.NoRandom, experiments.BaseLoad)
		c2, _ := res.Cell(policies.TimeDiceW, experiments.BaseLoad)
		nr, tdw = c1.RTAccuracy, c2.RTAccuracy
	}
	b.ReportMetric(100*nr, "NoRandom-acc%")
	b.ReportMetric(100*tdw, "TimeDiceW-acc%")
}

// BenchmarkFig13Heatmap regenerates Fig. 13: execution-vector heatmaps under
// TimeDice.
func BenchmarkFig13Heatmap(b *testing.B) {
	var collapse float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		collapse = res.NoRandomDistance - res.TimeDiceWDistance
	}
	b.ReportMetric(collapse, "distCollapse")
}

// BenchmarkFig14Distributions regenerates Fig. 14: light-load Pr(R|X) under
// the three policies.
func BenchmarkFig14Distributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(benchScale(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15Capacity regenerates Fig. 15: channel capacity per policy
// and load.
func BenchmarkFig15Capacity(b *testing.B) {
	var nr, tdw float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		nr, _ = res.Bar(policies.NoRandom, experiments.BaseLoad)
		tdw, _ = res.Bar(policies.TimeDiceW, experiments.BaseLoad)
	}
	b.ReportMetric(nr, "NoRandom-bits")
	b.ReportMetric(tdw, "TimeDiceW-bits")
}

// BenchmarkFig16Boxplots regenerates Fig. 16: per-task response-time spreads
// under NoRandom vs TimeDice.
func BenchmarkFig16Boxplots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16(benchScale(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable02WCRT regenerates Table II: analytic and empirical WCRTs.
func BenchmarkTable02WCRT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table02(benchScale(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable03Car regenerates Table III: car-application responsiveness.
func BenchmarkTable03Car(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table03(benchScale(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable04Latency regenerates Table IV: per-decision latency
// percentiles for |Π| = 5/10/20.
func BenchmarkTable04Latency(b *testing.B) {
	var p50 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Overhead(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		row, _ := res.Row(20, policies.TimeDiceW)
		p50 = row.P50
	}
	b.ReportMetric(p50, "p50-us-at-20")
}

// BenchmarkFig17Overhead regenerates Fig. 17: randomization time per second
// of schedule.
func BenchmarkFig17Overhead(b *testing.B) {
	var us float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Overhead(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		row, _ := res.Row(5, policies.TimeDiceW)
		us = row.PolicyMicrosPerSec
	}
	b.ReportMetric(us, "us-per-simsec")
}

// BenchmarkTable05Switches regenerates Table V: decisions and switches per
// second for |Π| = 5/10/20 under both schedulers.
func BenchmarkTable05Switches(b *testing.B) {
	var nr, td float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Overhead(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		r1, _ := res.Row(5, policies.NoRandom)
		r2, _ := res.Row(5, policies.TimeDiceW)
		nr, td = r1.DecisionsPerSec, r2.DecisionsPerSec
	}
	b.ReportMetric(nr, "NR-dec/s")
	b.ReportMetric(td, "TD-dec/s")
}

// BenchmarkFig18Blinder regenerates Fig. 18 / §V-C: the BLINDER comparison.
func BenchmarkFig18Blinder(b *testing.B) {
	var order float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig18(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		order = res.OrderBlinder
	}
	b.ReportMetric(100*order, "blinder-order-acc%")
}

// BenchmarkRateSweep regenerates the §V-B1 bits-per-second discussion: the
// covert rate as a function of the monitoring-window length.
func BenchmarkRateSweep(b *testing.B) {
	var nr, td float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Rate(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		p1, _ := res.Point(policies.NoRandom, vtime.MS(100))
		p2, _ := res.Point(policies.TimeDiceW, vtime.MS(100))
		nr, td = p1.BitsPerS, p2.BitsPerS
	}
	b.ReportMetric(nr, "NR-bits/s")
	b.ReportMetric(td, "TD-bits/s")
}

// BenchmarkNaiveShortfall regenerates the §IV motivation: unprincipled
// randomization under-serves budgets; TimeDice never does.
func BenchmarkNaiveShortfall(b *testing.B) {
	var naiveShort float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Naive(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		row, _ := res.Row("NaiveRandom")
		tdw, _ := res.Row("TimeDiceW")
		if tdw.PeriodsShort != 0 {
			b.Fatalf("TimeDiceW under-served %d periods", tdw.PeriodsShort)
		}
		naiveShort = float64(row.PeriodsShort) / float64(row.PeriodsChecked)
	}
	b.ReportMetric(100*naiveShort, "naive-short%")
}

// --- Ablations of the design choices DESIGN.md calls out ---

// BenchmarkAblationQuantum sweeps MIN_INV_SIZE: larger quanta randomize less
// often (fewer decisions) but cost less overhead.
func BenchmarkAblationQuantum(b *testing.B) {
	for _, q := range []vtime.Duration{vtime.FromFloatMS(0.5), vtime.MS(1), vtime.MS(2), vtime.MS(4)} {
		b.Run(q.String(), func(b *testing.B) {
			var decisions float64
			for i := 0; i < b.N; i++ {
				built, err := workload.TableIBase().Build()
				if err != nil {
					b.Fatal(err)
				}
				pol := core.NewPolicy(core.WithQuantum(q))
				sys, err := engine.New(built.Partitions, pol, rng.New(1))
				if err != nil {
					b.Fatal(err)
				}
				sys.Run(vtime.Time(2 * vtime.Second))
				decisions = float64(sys.Counters.Decisions) / 2
			}
			b.ReportMetric(decisions, "dec/s")
		})
	}
}

// BenchmarkAblationServers compares the three budget-server policies under
// the covert channel: the polling server's idle-discard changes the channel
// dynamics.
func BenchmarkAblationServers(b *testing.B) {
	for _, srv := range []server.Policy{server.Polling, server.Deferrable, server.Sporadic} {
		b.Run(srv.String(), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				cfg := covert.Config{
					Spec: workload.TableIBase(), Sender: 1, Receiver: 3,
					ProfileWindows: 64, TestWindows: 128,
					Servers: srv, Seed: 1,
				}
				res, err := covert.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.RTAccuracy
			}
			b.ReportMetric(100*acc, "acc%")
		})
	}
}

// BenchmarkAblationSelection compares uniform vs weighted random selection
// (Theorem 1) on light load, where the difference is most pronounced.
func BenchmarkAblationSelection(b *testing.B) {
	for _, kind := range []policies.Kind{policies.TimeDiceU, policies.TimeDiceW} {
		b.Run(kind.String(), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				cfg := covert.Config{
					Spec: workload.TableILight(), Sender: 1, Receiver: 3,
					ProfileWindows: 64, TestWindows: 128,
					Policy: kind, Seed: 1,
				}
				res, err := covert.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				acc = res.RTAccuracy
			}
			b.ReportMetric(100*acc, "acc%")
		})
	}
}

// BenchmarkRandomness regenerates the schedule-uncertainty metrics (the
// quantitative Fig. 6 / Theorem 1 validation).
func BenchmarkRandomness(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Randomness(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		nr, _ := res.Row(policies.NoRandom, experiments.LightLoad)
		tdw, _ := res.Row(policies.TimeDiceW, experiments.LightLoad)
		gap = tdw.SlotEntropy - nr.SlotEntropy
	}
	b.ReportMetric(gap, "entropyGain")
}

// BenchmarkUtilizationSweep regenerates the load sweep (base/light dichotomy
// extended to a curve).
func BenchmarkUtilizationSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.UtilizationSweep(benchScale(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the hot paths ---

// BenchmarkTimeDiceDecision measures one Pick on the warmed Table I system
// and its ×2 and ×4 scalings, always at the same instant. Only the first
// Pick runs the candidate walk: no partition is stamped between calls and now
// stays inside the search's validity horizon, so every later Pick reuses the
// stored search and measures search reuse plus the weighted lottery. The
// walk itself is measured by BenchmarkEngineStepDense (internal/engine).
func BenchmarkTimeDiceDecision(b *testing.B) {
	for _, mult := range []int{1, 2, 4} {
		spec := workload.Scale(workload.TableIBase(), mult)
		b.Run(spec.Name, func(b *testing.B) {
			built, err := spec.Build()
			if err != nil {
				b.Fatal(err)
			}
			pol := core.NewPolicy()
			sys, err := engine.New(built.Partitions, pol, rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			// Warm the system into a representative state.
			sys.Run(vtime.Time(vtime.MS(500)))
			now := sys.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pol.Pick(sys, now)
			}
		})
	}
}

// BenchmarkSchedulabilityTest measures one Algorithm-3 busy-interval test.
func BenchmarkSchedulabilityTest(b *testing.B) {
	spec := workload.Scale(workload.TableIBase(), 4)
	built, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	pol := core.NewPolicy()
	sys, err := engine.New(built.Partitions, pol, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	sys.Run(vtime.Time(vtime.MS(500)))
	states := core.Snapshot(sys, nil)
	now := sys.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.SchedulabilityTest(states, len(states)-1, now, core.DefaultQuantum, nil)
	}
}

// BenchmarkEngineNoRandom measures raw simulation throughput (simulated
// seconds per wall second) under the event-driven fixed-priority scheduler.
func BenchmarkEngineNoRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(workload.TableIBase(), NoRandom, 1)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(Time(10 * Second))
	}
}

// BenchmarkEngineTimeDice is the same throughput measure under TimeDiceW.
func BenchmarkEngineTimeDice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := NewSystem(workload.TableIBase(), TimeDiceW, 1)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(Time(10 * Second))
	}
}

// BenchmarkEngineTimeDiceTelemetry measures the sink-attached engine: the
// same run as BenchmarkEngineTimeDice but with every event counted through a
// minimal sink. The gap between the two benchmarks is the full cost of the
// telemetry layer when enabled; BenchmarkEngineTimeDice itself is the
// nil-sink guard and must stay within noise of the pre-telemetry seed.
func BenchmarkEngineTimeDiceTelemetry(b *testing.B) {
	var events int64
	for i := 0; i < b.N; i++ {
		var n int64
		sink := TelemetryFunc(func(TelemetryEvent) { n++ })
		sys, err := NewSystem(workload.TableIBase(), TimeDiceW, 1, WithTelemetry(sink))
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(Time(10 * Second))
		events = n
	}
	b.ReportMetric(float64(events), "events/run")
}

// BenchmarkEngineTimeDiceCollector is the realistic enabled configuration: a
// metrics Collector aggregating the stream into histograms and counters.
func BenchmarkEngineTimeDiceCollector(b *testing.B) {
	names := make([]string, len(workload.TableIBase().Partitions))
	for i, p := range workload.TableIBase().Partitions {
		names[i] = p.Name
	}
	for i := 0; i < b.N; i++ {
		coll := NewMetricsCollector(nil, names)
		sys, err := NewSystem(workload.TableIBase(), TimeDiceW, 1, WithTelemetry(coll))
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(Time(10 * Second))
	}
}

// BenchmarkSVMTrain measures training the paper's execution-vector
// classifier on channel-sized data (150-dim binary vectors).
func BenchmarkSVMTrain(b *testing.B) {
	r := rng.New(1)
	const n, dim = 256, 150
	xs := make([][]float64, n)
	ys := make([]int, n)
	for i := range xs {
		y := r.Bit()
		v := make([]float64, dim)
		for d := range v {
			p := 0.3
			if y == 1 && d > dim/2 {
				p = 0.6
			}
			if r.Bool(p) {
				v[d] = 1
			}
		}
		xs[i], ys[i] = v, y
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (ml.SVM{}).Train(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalysis measures the full Table II analytic computation.
func BenchmarkAnalysis(b *testing.B) {
	spec := workload.TableIBase()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetection regenerates the defender-side sender-detection
// extension.
func BenchmarkDetection(b *testing.B) {
	var margin float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Detection(benchScale(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		row := res.Rows[len(res.Rows)-1] // TimeDiceW
		margin = row.SenderScore - row.RunnerUp
	}
	b.ReportMetric(margin, "detect-margin")
}

// BenchmarkMultiPair regenerates the concurrent-pairs extension.
func BenchmarkMultiPair(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiPair(policies.NoRandom, 200, 1)
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy1
	}
	b.ReportMetric(100*acc, "pair1-acc%")
}

// BenchmarkReceiverZoo regenerates the learner comparison.
func BenchmarkReceiverZoo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ReceiverZoo(benchScale(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSendMessage measures end-to-end covert exfiltration of a 8-byte
// payload (profiling + transmission).
func BenchmarkSendMessage(b *testing.B) {
	var byteAcc float64
	for i := 0; i < b.N; i++ {
		res, err := covert.SendMessage(covert.MessageConfig{
			Channel: covert.Config{
				Spec: workload.TableIBase(), Sender: 1, Receiver: 3,
				ProfileWindows: 64, Seed: 1,
			},
			Payload:    []byte("SECRET01"),
			Repetition: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		byteAcc = res.ByteAccuracy
	}
	b.ReportMetric(100*byteAcc, "bytes-intact%")
}
