// Command report runs the complete evaluation — every table and figure of
// the paper plus the extension sweeps — and writes one self-contained
// markdown report. It is the "regenerate everything" entry point:
//
//	report -out report.md -scale quick     # minutes
//	report -out report.md -scale full      # paper-scale
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"timedice/internal/experiments"
	"timedice/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	outPath := fs.String("out", "report.md", "output markdown file (- for stdout)")
	scaleName := fs.String("scale", "quick", "experiment scale: quick | full")
	seed := fs.Uint64("seed", 1, "random seed")
	parallel := fs.Int("parallel", 0, "trial workers: 0 = one per CPU, 1 = sequential")
	progress := fs.Bool("progress", false, "print a periodic progress line to stderr")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q: report takes only flags", fs.Args())
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

	var w io.Writer
	if *outPath == "-" {
		w = os.Stdout
	} else {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "report: close:", err)
			}
		}()
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		w = bw
	}

	fmt.Fprintf(w, "# TimeDice evaluation report\n\n")
	fmt.Fprintf(w, "scale=%s seed=%d generated=%s\n\n", *scaleName, *seed,
		time.Now().Format(time.RFC3339))

	// Campaign ops: one Progress "trial" per section, the run ledger, and
	// the exposition server while the (potentially hours-long at -scale
	// full) report regenerates.
	prog := obs.NewProgress("report", int64(len(experiments.Sections)))
	ledger, srv, err := obsFlags.Start("report", fs, prog)
	if err != nil {
		return err
	}
	exitCode := 1
	defer func() {
		if srv != nil {
			srv.Close() //nolint:errcheck // shutting down
		}
		ledger.Finish(exitCode) //nolint:errcheck // the section error dominates
	}()
	if *progress {
		defer prog.StartReporter(os.Stderr, 2*time.Second)()
	}

	for _, sec := range experiments.Sections {
		fmt.Fprintf(w, "## %s\n\n```\n", sec.Title)
		prog.TrialStart()
		start := time.Now()
		_, err := sec.Run(sc, w)
		prog.TrialDone(0, 0, time.Since(start))
		if err != nil {
			return fmt.Errorf("%s: %w", sec.Title, err)
		}
		ledger.AddCounter("sections", 1)
		fmt.Fprintf(w, "```\n(%.1fs)\n\n", time.Since(start).Seconds())
	}
	if *outPath != "-" {
		if abs, err := filepath.Abs(*outPath); err == nil {
			ledger.AddArtifact(abs)
		} else {
			ledger.AddArtifact(*outPath)
		}
		fmt.Fprintln(os.Stderr, "wrote", *outPath)
	}
	exitCode = 0
	return nil
}
