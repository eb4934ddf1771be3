// Command wcrt prints Table II of the paper: the analytic worst-case
// response time of every task of the Table I system under NoRandom (Davis &
// Burns hierarchical analysis) and under TimeDice (Eqs. 4–5), next to
// empirical maxima measured from simulation.
//
// Usage:
//
//	wcrt                 # analytic only (instant)
//	wcrt -empirical 60   # plus 60 simulated seconds of measurement
package main

import (
	"flag"
	"fmt"
	"os"

	"timedice/internal/analysis"
	"timedice/internal/experiments"
	"timedice/internal/model"
	"timedice/internal/obs"
	"timedice/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wcrt:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wcrt", flag.ContinueOnError)
	empirical := fs.Int("empirical", 0, "simulated seconds of empirical measurement (0 = analytic only)")
	alpha := fs.Float64("alpha", workload.DefaultAlpha, "budget fraction B_i = alpha*T_i")
	beta := fs.Float64("beta", workload.DefaultBeta, "WCET fraction e_ij = beta*p_ij")
	seed := fs.Uint64("seed", 1, "random seed for the empirical run")
	parallel := fs.Int("parallel", 0, "trial workers for the empirical run: 0 = one per CPU, 1 = sequential")
	configPath := fs.String("config", "", "analyze a JSON system spec instead of Table I (analytic only)")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q: wcrt takes only flags", fs.Args())
	}
	if *empirical < 0 {
		return fmt.Errorf("-empirical %d: must be positive, or 0 for the analytic table only", *empirical)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: must be positive, or 0 for one worker per CPU", *parallel)
	}
	ledger, srv, err := obsFlags.Start("wcrt", fs, nil)
	if err != nil {
		return err
	}
	exitCode := 1
	defer func() {
		if srv != nil {
			srv.Close() //nolint:errcheck // shutting down
		}
		ledger.Finish(exitCode) //nolint:errcheck // the analysis error dominates
	}()
	finish := func(err error) error {
		if err == nil {
			exitCode = 0
		}
		return err
	}

	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			return err
		}
		spec, err := model.ReadSystem(f)
		closeErr := f.Close()
		if err != nil {
			return err
		}
		if closeErr != nil {
			return closeErr
		}
		return finish(printAnalysis(spec))
	}

	spec := workload.TableI(*alpha, *beta)
	if *empirical > 0 {
		sc := experiments.Scale{SimSeconds: *empirical, Seed: *seed, Parallel: *parallel}
		_, err := experiments.Table02(sc, os.Stdout)
		return finish(err)
	}

	return finish(printAnalysis(spec))
}

func printAnalysis(spec model.SystemSpec) error {
	rows, err := analysis.AnalyzeSystem(spec)
	if err != nil {
		return err
	}
	fmt.Printf("Analytic WCRT (ms) for %s\n", spec.Name)
	fmt.Printf("%-8s %9s %9s %9s %9s %6s\n", "task", "deadline", "NoRandom", "TimeDice", "TD-NR", "sched")
	for _, r := range rows {
		fmt.Printf("%-8s %9.2f %9.2f %9.2f %9.2f %6v\n",
			r.Task, r.Deadline.Milliseconds(), r.NoRandom.Milliseconds(), r.TimeDice.Milliseconds(),
			r.TimeDice.Milliseconds()-r.NoRandom.Milliseconds(), r.Schedulable())
	}
	return nil
}
