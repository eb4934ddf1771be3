// Command overheadbench regenerates the scheduling-overhead evaluation of
// the paper's §V-B3: Table IV (per-decision latency percentiles), Table V
// (decisions and switches per second), and Fig. 17 (randomization time per
// second of schedule) for |Π| ∈ {5, 10, 20}.
//
// Absolute latencies are those of this Go implementation on the host CPU,
// not of the paper's kernel implementation; the growth with |Π| is the
// reproducible shape.
package main

import (
	"flag"
	"fmt"
	"os"

	"timedice/internal/experiments"
	"timedice/internal/obs"
	"timedice/internal/prof"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "overheadbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("overheadbench", flag.ContinueOnError)
	secs := fs.Int("secs", 30, "simulated seconds per configuration")
	seed := fs.Uint64("seed", 1, "random seed")
	naive := fs.Bool("naive", false, "also run the unprincipled-randomization shortfall comparison")
	randomness := fs.Bool("entropy", false, "also run the schedule-randomness metrics (slot entropy, exhaustion spread)")
	parallel := fs.Int("parallel", 1, "trial workers: 0 = one per CPU, 1 = sequential (keeps Table IV latencies noise-free)")
	obsFlags := obs.AddFlags(fs)
	pf := prof.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q: overheadbench takes only flags", fs.Args())
	}
	if *secs <= 0 {
		return fmt.Errorf("-secs %d: must be positive", *secs)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: must be positive, or 0 for one worker per CPU", *parallel)
	}
	ledger, srv, err := obsFlags.Start("overheadbench", fs, nil)
	if err != nil {
		return err
	}
	exitCode := 1
	defer func() {
		if srv != nil {
			srv.Close() //nolint:errcheck // shutting down
		}
		ledger.Finish(exitCode) //nolint:errcheck // the bench error dominates
	}()
	stopProf, err := pf.Start()
	if err != nil {
		return err
	}
	defer stopProf()
	sc := experiments.Scale{SimSeconds: *secs, Seed: *seed, Parallel: *parallel}
	if _, err := experiments.Overhead(sc, os.Stdout); err != nil {
		return err
	}
	if *naive {
		fmt.Println()
		if _, err := experiments.Naive(sc, os.Stdout); err != nil {
			return err
		}
	}
	if *randomness {
		fmt.Println()
		if _, err := experiments.Randomness(sc, os.Stdout); err != nil {
			return err
		}
	}
	if err := stopProf(); err != nil {
		return err
	}
	exitCode = 0
	return nil
}
