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
	stream := fs.Bool("stream", false, "streaming (constant-memory sketch) aggregation for campaign/fig16; exact is the default")
	progress := fs.Bool("progress", false, "print a periodic progress line to stderr")
	obsFlags := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
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
	sc.Stream = *stream

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

	sections := []struct {
		title string
		fn    func(experiments.Scale, io.Writer) error
	}{
		{"Fig. 4 — covert-channel feasibility", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Fig04(s, w) })},
		{"Fig. 6 — schedule traces", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Fig06(s, w) })},
		{"Fig. 12 — mitigation grid", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Fig12(s, w) })},
		{"Fig. 13 — execution vectors under TimeDice", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Fig13(s, w) })},
		{"Fig. 14 — response-time distributions", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Fig14(s, w) })},
		{"Fig. 15 — channel capacity", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Fig15(s, w) })},
		{"Fig. 16 — task response times", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Fig16(s, w) })},
		{"Table II — WCRTs", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Table02(s, w) })},
		{"Table III — car responsiveness", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Table03(s, w) })},
		{"Tables IV–V / Fig. 17 — overhead", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Overhead(s, w) })},
		{"Fig. 18 / §V-C — BLINDER comparison", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Fig18(s, w) })},
		{"§III-e — car covert channel", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.CarChannel(s, w) })},
		{"Extension — ablations", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Ablation(s, w) })},
		{"Extension — signaling rate", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Rate(s, w) })},
		{"Extension — unprincipled randomization", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Naive(s, w) })},
		{"Extension — schedule randomness", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Randomness(s, w) })},
		{"Extension — utilization sweep", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.UtilizationSweep(s, w) })},
		{"Extension — concurrent pairs", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.MultiPairReport(s, w) })},
		{"Extension — receiver zoo", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.ReceiverZoo(s, w) })},
		{"Extension — sender detection", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Detection(s, w) })},
		{"Extension — cross-seed campaign", wrap(func(s experiments.Scale, w io.Writer) (any, error) { return experiments.Campaign(s, w) })},
	}
	// Campaign ops: one Progress "trial" per section, the run ledger, and
	// the exposition server while the (potentially hours-long at -scale
	// full) report regenerates.
	prog := obs.NewProgress("report", int64(len(sections)))
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

	for _, sec := range sections {
		fmt.Fprintf(w, "## %s\n\n```\n", sec.title)
		prog.TrialStart()
		start := time.Now()
		err := sec.fn(sc, w)
		prog.TrialDone(0, 0, time.Since(start))
		if err != nil {
			return fmt.Errorf("%s: %w", sec.title, err)
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

// wrap adapts a result-returning harness to an error-only section function.
func wrap(fn func(experiments.Scale, io.Writer) (any, error)) func(experiments.Scale, io.Writer) error {
	return func(s experiments.Scale, w io.Writer) error {
		_, err := fn(s, w)
		return err
	}
}
