// Command covertbench regenerates the covert-channel sections of the
// evaluation report: the rows of experiments.Sections with a -fig key (Figs.
// 4 and 12–15, the car channel of §III-e and the covert-channel extensions).
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
	_, keys := selectFigs("")
	fig := fs.String("fig", "all", "experiment: "+strings.Join(keys, " | ")+" | all")
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

	selected, _ := selectFigs(*fig)
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (want %s or all)", *fig, strings.Join(keys, ", "))
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
	w := os.Stdout
	for _, sec := range selected {
		fmt.Fprintf(w, "==== experiment %s (scale=%s, seed=%d) ====\n", sec.Key, *scaleName, *seed)
		prog.TrialStart()
		start := time.Now()
		_, err := sec.Run(sc, w)
		prog.TrialDone(0, 0, time.Since(start))
		if err != nil {
			stopProf()
			return fmt.Errorf("experiment %s: %w", sec.Key, err)
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

// selectFigs returns the sections -fig fig names, the one keyed fig (in any
// case) or every keyed section for "all", and every valid key, in report
// order.
func selectFigs(fig string) (selected []experiments.Section, keys []string) {
	for _, sec := range experiments.Sections {
		if sec.Key == "" {
			continue
		}
		keys = append(keys, sec.Key)
		if strings.EqualFold(fig, "all") || strings.EqualFold(fig, sec.Key) {
			selected = append(selected, sec)
		}
	}
	return selected, keys
}
