// Command blinderbench regenerates the §V-C comparison with BLINDER:
// the Fig. 18 task-order covert channel under no defense, under BLINDER's
// local-schedule transform, and under TimeDice — plus the paper's §III
// response-time channel with the receiver BLINDER-transformed.
package main

import (
	"flag"
	"fmt"
	"os"

	"timedice/internal/experiments"
	"timedice/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "blinderbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("blinderbench", flag.ContinueOnError)
	windows := fs.Int("windows", 2000, "signaled bits per configuration")
	seed := fs.Uint64("seed", 1, "random seed")
	parallel := fs.Int("parallel", 0, "trial workers: 0 = one per CPU, 1 = sequential")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: must be positive, or 0 for one worker per CPU", *parallel)
	}
	ledger, srv, err := obsFlags.Start("blinderbench", fs, nil)
	if err != nil {
		return err
	}
	exitCode := 1
	defer func() {
		if srv != nil {
			srv.Close() //nolint:errcheck // shutting down
		}
		ledger.Finish(exitCode) //nolint:errcheck // the experiment error dominates
	}()
	sc := experiments.Scale{TestWindows: *windows, Seed: *seed, Parallel: *parallel}
	if _, err := experiments.Fig18(sc, os.Stdout); err != nil {
		return err
	}
	exitCode = 0
	return nil
}
