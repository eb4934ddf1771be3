// Command figures renders the paper's visual artifacts as PNG files:
// the Fig. 6 schedule traces (NoRandom vs TimeDice), the Fig. 4(b)/13
// execution-vector heatmaps (NoRandom, TimeDiceU, TimeDiceW), and the
// Fig. 16 per-task response-time box plots (NoRandom vs TimeDice).
//
// Usage:
//
//	figures -out ./figures [-windows 120] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"timedice/internal/covert"
	"timedice/internal/engine"
	"timedice/internal/experiments"
	"timedice/internal/experiments/runner"
	"timedice/internal/obs"
	"timedice/internal/policies"
	"timedice/internal/rng"
	"timedice/internal/stats"
	"timedice/internal/trace"
	"timedice/internal/vtime"
	"timedice/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	outDir := fs.String("out", "figures", "output directory")
	windows := fs.Int("windows", 120, "monitoring windows per heatmap")
	seed := fs.Uint64("seed", 1, "random seed")
	parallel := fs.Int("parallel", 0, "render workers: 0 = one per CPU, 1 = sequential")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q: figures takes only flags", fs.Args())
	}
	if *windows <= 0 {
		return fmt.Errorf("-windows %d: must be positive", *windows)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: must be positive, or 0 for one worker per CPU", *parallel)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	ledger, srv, err := obsFlags.Start("figures", fs, nil)
	if err != nil {
		return err
	}
	exitCode := 1
	defer func() {
		if srv != nil {
			srv.Close() //nolint:errcheck // shutting down
		}
		ledger.Finish(exitCode) //nolint:errcheck // the render error dominates
	}()

	// The five renders simulate independent systems; fan them out.
	var renders []func() error
	// Fig. 6: schedule traces of the 3-partition example.
	for _, kind := range []policies.Kind{policies.NoRandom, policies.TimeDiceW} {
		renders = append(renders, func() error { return renderGantt(*outDir, kind, *seed) })
	}
	// Figs. 4(b)/13: execution-vector heatmaps under the three policies.
	for _, kind := range []policies.Kind{policies.NoRandom, policies.TimeDiceU, policies.TimeDiceW} {
		renders = append(renders, func() error { return renderHeatmap(*outDir, kind, *windows, *seed) })
	}
	// Fig. 16: per-task response-time box plots, NoRandom vs TimeDice.
	renders = append(renders, func() error { return renderBoxes(*outDir, *seed) })
	if err := runner.Do(*parallel, renders...); err != nil {
		return err
	}
	if abs, err := filepath.Abs(*outDir); err == nil {
		ledger.AddArtifact(abs)
	} else {
		ledger.AddArtifact(*outDir)
	}
	ledger.AddCounter("renders", int64(len(renders)))
	exitCode = 0
	return nil
}

// renderBoxes draws the Fig. 16 response-time spreads: one group per Table I
// task, NoRandom and TimeDiceW boxes side by side.
func renderBoxes(outDir string, seed uint64) error {
	sc := experiments.Quick()
	sc.Seed = seed
	sc.Parallel = 1 // already fanned out as one render among the others
	res, err := experiments.Fig16(sc, nil)
	if err != nil {
		return err
	}
	labels := make([]string, len(res.NoRandom.Tasks))
	nr := make([]stats.BoxPlot, len(res.NoRandom.Tasks))
	td := make([]stats.BoxPlot, len(res.NoRandom.Tasks))
	for i, t := range res.NoRandom.Tasks {
		labels[i] = t.Task
		nr[i] = t.Box()
		td[i] = res.TimeDice.Tasks[i].Box()
	}
	path := filepath.Join(outDir, "fig16_boxes.png")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = trace.BoxesPNG(labels, [][]stats.BoxPlot{nr, td}, f)
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return fmt.Errorf("render %s: %w", path, err)
	}
	fmt.Println("wrote", path)
	return nil
}

func renderGantt(outDir string, kind policies.Kind, seed uint64) error {
	spec := workload.ThreePartition()
	built, err := spec.Build()
	if err != nil {
		return err
	}
	pol, err := policies.Build(kind, built.Partitions, policies.Options{})
	if err != nil {
		return err
	}
	sys, err := engine.New(built.Partitions, pol, rng.New(seed))
	if err != nil {
		return err
	}
	rec := trace.NewRecorder(0, vtime.Time(vtime.MS(200)))
	sys.TraceFn = rec.Hook()
	sys.Run(vtime.Time(vtime.MS(200)))

	path := filepath.Join(outDir, fmt.Sprintf("fig06_%s.png", kind))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = rec.GanttPNG(len(spec.Partitions), vtime.FromFloatMS(0.25), 12, f)
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return fmt.Errorf("render %s: %w", path, err)
	}
	fmt.Println("wrote", path)
	return nil
}

func renderHeatmap(outDir string, kind policies.Kind, windows int, seed uint64) error {
	cfg := covert.Config{
		Spec:           workload.TableIBase(),
		Sender:         1,
		Receiver:       3,
		ProfileWindows: windows,
		TestWindows:    16, // heatmaps use the profile phase
		Policy:         kind,
		Seed:           seed,
	}
	res, err := covert.Run(cfg)
	if err != nil {
		return err
	}
	var vectors [][]float64
	var labels []int
	for _, ob := range res.Profile {
		vectors = append(vectors, ob.Vector)
		labels = append(labels, ob.Label)
	}
	name := "fig04b_NoRandom.png"
	if kind != policies.NoRandom {
		name = fmt.Sprintf("fig13_%s.png", kind)
	}
	path := filepath.Join(outDir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = trace.HeatmapPNG(vectors, labels, 3, f)
	if closeErr := f.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return fmt.Errorf("render %s: %w", path, err)
	}
	fmt.Println("wrote", path)
	return nil
}
