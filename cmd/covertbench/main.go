// Command covertbench regenerates the covert-channel experiments of the
// paper: Fig. 4 (feasibility), Fig. 12 (mitigation grid), Fig. 13 (heatmaps),
// Fig. 14 (distributions), Fig. 15 (channel capacity), and the self-driving
// car scenario of §III-e.
//
// Usage:
//
//	covertbench -fig 12 -scale quick
//	covertbench -fig all -scale full      # paper-scale (slow)
//
// Campaign operations: -http serves /metrics, /statusz, /healthz, and
// /debug/pprof while the experiments run; -progress prints a periodic
// per-experiment status line to stderr; -runs writes a run.json provenance
// manifest. All three write off the report stream, so reports stay
// byte-identical with them on.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"timedice/internal/experiments"
	"timedice/internal/obs"
	"timedice/internal/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "covertbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("covertbench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "experiment: 4 | 12 | 13 | 14 | 15 | car | ablation | rate | multipair | receivers | detect | campaign | all")
	scaleName := fs.String("scale", "quick", "experiment scale: quick | full")
	seed := fs.Uint64("seed", 1, "random seed")
	parallel := fs.Int("parallel", 0, "trial workers: 0 = one per CPU, 1 = sequential")
	progress := fs.Bool("progress", false, "print a periodic progress line to stderr")
	obsFlags := obs.AddFlags(fs)
	pf := prof.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q: covertbench takes only flags", fs.Args())
	}
	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: must be positive, or 0 for one worker per CPU", *parallel)
	}
	sc.Seed = *seed
	sc.Parallel = *parallel

	type runner struct {
		name string
		fn   func() error
	}
	w := os.Stdout
	all := []runner{
		{"4", func() error { _, err := experiments.Fig04(sc, w); return err }},
		{"12", func() error { _, err := experiments.Fig12(sc, w); return err }},
		{"13", func() error { _, err := experiments.Fig13(sc, w); return err }},
		{"14", func() error { _, err := experiments.Fig14(sc, w); return err }},
		{"15", func() error { _, err := experiments.Fig15(sc, w); return err }},
		{"car", func() error { _, err := experiments.CarChannel(sc, w); return err }},
		{"ablation", func() error { _, err := experiments.Ablation(sc, w); return err }},
		{"rate", func() error { _, err := experiments.Rate(sc, w); return err }},
		{"multipair", func() error { _, err := experiments.MultiPairReport(sc, w); return err }},
		{"receivers", func() error { _, err := experiments.ReceiverZoo(sc, w); return err }},
		{"detect", func() error { _, err := experiments.Detection(sc, w); return err }},
		{"campaign", func() error { _, err := experiments.Campaign(sc, w); return err }},
	}
	want := strings.ToLower(*fig)
	var selected []runner
	for _, r := range all {
		if want == "all" || want == r.name {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q", *fig)
	}

	// Campaign ops: one Progress "trial" per experiment, the run ledger, and
	// the exposition server for the duration.
	prog := obs.NewProgress("covertbench", int64(len(selected)))
	ledger, srv, err := obsFlags.Start("covertbench", fs, prog)
	if err != nil {
		return err
	}
	exitCode := 1 // assume failure; flipped to 0 on the success path
	defer func() {
		if srv != nil {
			srv.Close() //nolint:errcheck // shutting down
		}
		ledger.Finish(exitCode) //nolint:errcheck // the experiment error dominates
	}()
	var stopReport func()
	if *progress {
		stopReport = prog.StartReporter(os.Stderr, 2*time.Second)
		defer stopReport()
	}

	stopProf, err := pf.Start()
	if err != nil {
		return err
	}
	for _, r := range selected {
		fmt.Fprintf(w, "==== experiment %s (scale=%s, seed=%d) ====\n", r.name, *scaleName, *seed)
		prog.TrialStart()
		start := time.Now()
		err := r.fn()
		prog.TrialDone(0, 0, time.Since(start))
		if err != nil {
			stopProf()
			return fmt.Errorf("experiment %s: %w", r.name, err)
		}
		ledger.AddCounter("experiments", 1)
		fmt.Fprintln(w)
	}
	if err := stopProf(); err != nil {
		return err
	}
	exitCode = 0
	return nil
}
