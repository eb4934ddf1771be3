package experiments

import (
	"io"

	"timedice/internal/analysis"
	"timedice/internal/engine"
	"timedice/internal/experiments/runner"
	"timedice/internal/model"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/stats"
	"timedice/internal/task"
	"timedice/internal/vtime"
)

// TaskResponse aggregates response-time observations for one task.
type TaskResponse struct {
	Partition, Task string
	Deadline        vtime.Duration
	Summary         stats.Summary
	Samples         []float64 // milliseconds, for box plots (exact mode)
	// Sketch replaces Samples under streaming aggregation
	// (ResponsivenessOptions.Stream): constant memory per task no matter how
	// long the run, with the sketch's documented quantile accuracy.
	Sketch *stats.Sketch
	Misses int64 // deadline misses observed
}

// Box returns the five-number summary of the observations: exact from the
// buffered samples, or sketch-estimated (mean from the streaming Summary)
// in streaming mode.
func (t *TaskResponse) Box() stats.BoxPlot {
	if t.Sketch != nil {
		if t.Sketch.N() == 0 {
			return stats.BoxPlot{}
		}
		qs := t.Sketch.Quantiles(0.25, 0.5, 0.75)
		return stats.BoxPlot{
			Min: t.Sketch.Min(), Q1: qs[0], Median: qs[1], Q3: qs[2],
			Max: t.Sketch.Max(), Mean: t.Summary.Mean(), N: int(t.Sketch.N()),
		}
	}
	return stats.Box(t.Samples)
}

// ResponsivenessResult is one policy's run over a system.
type ResponsivenessResult struct {
	Policy policies.Kind
	Tasks  []*TaskResponse
}

// Task returns the record for partition/task names.
func (r *ResponsivenessResult) Task(partition, taskName string) (*TaskResponse, bool) {
	for _, t := range r.Tasks {
		if t.Partition == partition && t.Task == taskName {
			return t, true
		}
	}
	return nil, false
}

// ResponsivenessOptions tune a run.
type ResponsivenessOptions struct {
	// Jitter varies task execution times downward and inter-arrivals upward
	// by up to the fraction, as the paper's benchmark does "for added
	// variations". Zero runs tasks at exact WCET/period (worst-case
	// pressure).
	Jitter float64
	// KeepSamples bounds the per-task stored samples (0 = keep all).
	// Ignored under Stream.
	KeepSamples int
	// Stream aggregates response times into per-task quantile sketches
	// instead of sample buffers: constant memory regardless of run length.
	Stream bool
}

// RunResponsiveness simulates spec under the policy for dur and collects
// per-task response times.
func RunResponsiveness(spec model.SystemSpec, kind policies.Kind, dur vtime.Duration, seed uint64, opts ResponsivenessOptions) (*ResponsivenessResult, error) {
	built, err := spec.Build()
	if err != nil {
		return nil, err
	}
	root := rng.New(seed)
	res := &ResponsivenessResult{Policy: kind}

	records := make(map[string]*TaskResponse)
	for _, ps := range spec.Partitions {
		for _, ts := range ps.Tasks {
			deadline := ts.Deadline
			if deadline == 0 {
				deadline = ts.Period
			}
			rec := &TaskResponse{Partition: ps.Name, Task: ts.Name, Deadline: deadline}
			if opts.Stream {
				rec.Sketch = stats.NewSketch()
			}
			records[model.TaskKey(ps.Name, ts.Name)] = rec
			res.Tasks = append(res.Tasks, rec)

			if opts.Jitter > 0 {
				tk := built.Task[model.TaskKey(ps.Name, ts.Name)]
				wcet, period := tk.WCET, tk.Period
				jr := root.Split()
				frac := opts.Jitter
				tk.ExecFn = func(int64, vtime.Time) vtime.Duration {
					return vtime.Duration(float64(wcet) * (1 - frac*jr.Float64()))
				}
				tk.PeriodFn = func(int64, vtime.Time) vtime.Duration {
					return vtime.Duration(float64(period) * (1 + frac*jr.Float64()))
				}
			}
		}
	}
	for pname, sched := range built.Sched {
		pn := pname
		sched.OnComplete = func(c task.Completion) {
			rec := records[model.TaskKey(pn, c.Job.Task.Name)]
			ms := c.Response.Milliseconds()
			rec.Summary.Add(ms)
			if rec.Sketch != nil {
				rec.Sketch.Add(ms)
			} else if opts.KeepSamples <= 0 || len(rec.Samples) < opts.KeepSamples {
				rec.Samples = append(rec.Samples, ms)
			}
			if c.Response > rec.Deadline {
				rec.Misses++
			}
		}
	}

	pol, err := policies.Build(kind, built.Partitions, policies.Options{})
	if err != nil {
		return nil, err
	}
	sys, err := engine.New(built.Partitions, pol, root.Split())
	if err != nil {
		return nil, err
	}
	sys.Run(vtime.Time(dur))
	return res, nil
}

// Fig16Result pairs the NoRandom and TimeDice box plots per task (Fig. 16).
type Fig16Result struct {
	NoRandom, TimeDice *ResponsivenessResult
}

// Fig16 runs the Table I benchmark under both policies with the paper's
// added timing variations and reports per-task response-time spreads.
func Fig16(sc Scale, w io.Writer) (*Fig16Result, error) {
	sc = sc.withDefaults()
	spec := BaseLoad.Spec()
	dur := vtime.Duration(sc.SimSeconds) * vtime.Second
	// Streaming mode trades the 100k-sample buffers for constant-memory
	// per-task sketches (sc.Stream; exact remains the default).
	opts := ResponsivenessOptions{Jitter: 0.2, KeepSamples: 100000, Stream: sc.Stream}
	runs, err := runner.Map(sc.Parallel, []policies.Kind{policies.NoRandom, policies.TimeDiceW},
		func(_ int, kind policies.Kind) (*ResponsivenessResult, error) {
			return RunResponsiveness(spec, kind, dur, sc.Seed, opts)
		})
	if err != nil {
		return nil, err
	}
	nr, td := runs[0], runs[1]
	res := &Fig16Result{NoRandom: nr, TimeDice: td}
	fprintf(w, "Fig 16: task response times (ms), NoRandom (NR) vs TimeDice (TD)\n")
	fprintf(w, "%-10s %-28s %-28s\n", "task", "NR min/med/max (mean)", "TD min/med/max (mean)")
	for i, n := range nr.Tasks {
		tb, nb := td.Tasks[i].Box(), n.Box()
		fprintf(w, "%-10s %6.2f/%6.2f/%7.2f (%6.2f)  %6.2f/%6.2f/%7.2f (%6.2f)\n",
			n.Task, nb.Min, nb.Median, nb.Max, nb.Mean, tb.Min, tb.Median, tb.Max, tb.Mean)
	}
	return res, nil
}

// Table02Row is one row of Table II.
type Table02Row struct {
	Task                         string
	Deadline                     vtime.Duration
	AnalNR, AnalTD               vtime.Duration
	EmpirNR, EmpirTD             float64 // ms
	SchedulableNR, SchedulableTD bool
}

// Table02Result holds all rows.
type Table02Result struct {
	Rows []Table02Row
}

// Table02 computes the analytic WCRTs (both analyses) and measures empirical
// WCRTs from simulation, reproducing Table II. The empirical runs use exact
// WCETs and minimum inter-arrival times (worst-case pressure); as in the
// paper, empirical values typically sit below the analytic bounds.
func Table02(sc Scale, w io.Writer) (*Table02Result, error) {
	sc = sc.withDefaults()
	spec := BaseLoad.Spec()
	anal, err := analysis.AnalyzeSystem(spec)
	if err != nil {
		return nil, err
	}
	dur := vtime.Duration(sc.SimSeconds) * vtime.Second
	// As in the paper's benchmark, tasks vary their execution times and
	// inter-arrival times for added variation; without it, the phase-locked
	// periodic schedule never visits the critical instants and the empirical
	// maxima stay far below the bounds.
	opts := ResponsivenessOptions{Jitter: 0.2}
	runs, err := runner.Map(sc.Parallel, []policies.Kind{policies.NoRandom, policies.TimeDiceW},
		func(_ int, kind policies.Kind) (*ResponsivenessResult, error) {
			return RunResponsiveness(spec, kind, dur, sc.Seed, opts)
		})
	if err != nil {
		return nil, err
	}
	nr, td := runs[0], runs[1]
	res := &Table02Result{}
	fprintf(w, "Table II: analytic vs empirical WCRT (ms)\n")
	fprintf(w, "%-8s %9s | %9s %9s | %9s %9s | %8s %8s\n",
		"task", "deadline", "NR anal", "NR empr", "TD anal", "TD empr", "dAnal", "dEmpr")
	for i, a := range anal {
		row := Table02Row{
			Task:     a.Task,
			Deadline: a.Deadline,
			AnalNR:   a.NoRandom,
			AnalTD:   a.TimeDice,
			EmpirNR:  nr.Tasks[i].Summary.Max(),
			EmpirTD:  td.Tasks[i].Summary.Max(),
		}
		row.SchedulableNR = row.AnalNR <= row.Deadline
		row.SchedulableTD = row.AnalTD <= row.Deadline
		res.Rows = append(res.Rows, row)
		fprintf(w, "%-8s %9.2f | %9.2f %9.2f | %9.2f %9.2f | %8.2f %8.2f\n",
			row.Task, row.Deadline.Milliseconds(),
			row.AnalNR.Milliseconds(), row.EmpirNR,
			row.AnalTD.Milliseconds(), row.EmpirTD,
			row.AnalTD.Milliseconds()-row.AnalNR.Milliseconds(), row.EmpirTD-row.EmpirNR)
	}
	return res, nil
}

// Table03Row is one application row of Table III.
type Table03Row struct {
	App                string
	Deadline           vtime.Duration
	NR, TD             struct{ Avg, Std, Max float64 }
	MissesNR, MissesTD int64
}

// Table03Result holds the car-platform responsiveness comparison.
type Table03Result struct {
	Rows []Table03Row
}

// Table03 measures the prototype self-driving applications' response times
// under NoRandom and TimeDice (the logger is excluded, as in the paper). The
// two runs fan out across sc.Parallel workers.
func Table03(sc Scale, w io.Writer) (*Table03Result, error) {
	sc = sc.withDefaults()
	spec := carSpec()
	dur := vtime.Duration(sc.SimSeconds) * vtime.Second
	opts := ResponsivenessOptions{Jitter: 0.2, KeepSamples: 1}
	runs, err := runner.Map(sc.Parallel, []policies.Kind{policies.NoRandom, policies.TimeDiceW},
		func(_ int, kind policies.Kind) (*ResponsivenessResult, error) {
			return RunResponsiveness(spec, kind, dur, sc.Seed, opts)
		})
	if err != nil {
		return nil, err
	}
	nr, td := runs[0], runs[1]
	labels := map[string]string{
		"behavior": "Behavior control",
		"vision":   "Vision-based steering",
		"planner":  "Path planning",
	}
	res := &Table03Result{}
	fprintf(w, "Table III: car-platform responsiveness (ms)\n")
	fprintf(w, "%-22s %8s | %7s %7s %7s | %7s %7s %7s\n",
		"application", "deadline", "NR avg", "NR std", "NR max", "TD avg", "TD std", "TD max")
	for i, n := range nr.Tasks {
		label, ok := labels[n.Partition]
		if !ok {
			continue // the data logger is not measured
		}
		t := td.Tasks[i]
		row := Table03Row{App: label, Deadline: n.Deadline, MissesNR: n.Misses, MissesTD: t.Misses}
		row.NR.Avg, row.NR.Std, row.NR.Max = n.Summary.Mean(), n.Summary.Std(), n.Summary.Max()
		row.TD.Avg, row.TD.Std, row.TD.Max = t.Summary.Mean(), t.Summary.Std(), t.Summary.Max()
		res.Rows = append(res.Rows, row)
		fprintf(w, "%-22s %8.0f | %7.2f %7.2f %7.2f | %7.2f %7.2f %7.2f\n",
			row.App, row.Deadline.Milliseconds(),
			row.NR.Avg, row.NR.Std, row.NR.Max, row.TD.Avg, row.TD.Std, row.TD.Max)
	}
	return res, nil
}
