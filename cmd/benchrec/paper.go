package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"timedice/internal/experiments"
	"timedice/internal/experiments/runner"
	"timedice/internal/policies"
)

// section is one section cmd/report regenerates, with the claim its result
// must satisfy (nil when the benchmark checks only its rendered output).
type section struct {
	name  string
	run   func(experiments.Scale, io.Writer) (any, error)
	claim func(any) error
	// canon maps the rendered output to the part every regeneration must
	// reproduce byte for byte; nil means all of it.
	canon func(string) string
}

// sections lists the report's sections in cmd/report's order; each one
// contributes an experiments.<name>_s per-layer metric.
var sections = []section{
	{"Fig04", wrap(experiments.Fig04), nil, nil},
	{"Fig06", wrap(experiments.Fig06), nil, nil},
	{"Fig12", wrap(experiments.Fig12), fig12Claim, nil},
	{"Fig13", wrap(experiments.Fig13), nil, nil},
	{"Fig14", wrap(experiments.Fig14), nil, nil},
	{"Fig15", wrap(experiments.Fig15), nil, nil},
	{"Fig16", wrap(experiments.Fig16), nil, nil},
	{"Table02", wrap(experiments.Table02), nil, nil},
	{"Table03", wrap(experiments.Table03), nil, nil},
	{"Overhead", wrap(experiments.Overhead), nil, hostMeasured},
	{"Fig18", wrap(experiments.Fig18), nil, nil},
	{"CarChannel", wrap(experiments.CarChannel), nil, nil},
	{"Ablation", wrap(experiments.Ablation), nil, nil},
	{"Rate", wrap(experiments.Rate), nil, nil},
	{"Naive", wrap(experiments.Naive), naiveClaim, nil},
	{"Randomness", wrap(experiments.Randomness), nil, dropExhaustion},
	{"UtilizationSweep", wrap(experiments.UtilizationSweep), nil, nil},
	{"MultiPairReport", wrap(experiments.MultiPairReport), nil, nil},
	{"ReceiverZoo", wrap(experiments.ReceiverZoo), nil, sortLines},
	{"Detection", wrap(experiments.Detection), nil, nil},
	{"Campaign", wrap(experiments.Campaign), nil, nil},
}

// hostMeasured drops Overhead's output: its Table IV rows are per-decision
// latencies measured on the host.
func hostMeasured(string) string { return "" }

// sortLines makes ReceiverZoo's output independent of row order: it sorts
// rows by NoRandom accuracy with an unstable sort over map-ordered input, so
// rows with equal accuracy come out in either order.
func sortLines(s string) string {
	lines := strings.Split(s, "\n")
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// dropExhaustion drops Randomness's last two columns, the budget-exhaustion
// std and mean: entropy.ExhaustionObserver.Spread sums them in map order, so
// their last printed digit can differ between runs.
func dropExhaustion(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		f := strings.Fields(l)
		lines[i] = strings.Join(f[:max(len(f)-2, 0)], " ")
	}
	return strings.Join(lines, "\n")
}

func wrap[R any](fn func(experiments.Scale, io.Writer) (R, error)) func(experiments.Scale, io.Writer) (any, error) {
	return func(s experiments.Scale, w io.Writer) (any, error) { return fn(s, w) }
}

// fig12Claim: TimeDiceW lowers the response-time receiver's accuracy on the
// base load below NoRandom's.
func fig12Claim(r any) error {
	res := r.(*experiments.Fig12Result)
	nr, ok1 := res.Cell(policies.NoRandom, experiments.BaseLoad)
	td, ok2 := res.Cell(policies.TimeDiceW, experiments.BaseLoad)
	if !ok1 || !ok2 || td.RTAccuracy >= nr.RTAccuracy {
		return fmt.Errorf("base-load RT accuracy TimeDiceW %.4f not below NoRandom %.4f", td.RTAccuracy, nr.RTAccuracy)
	}
	return nil
}

// naiveClaim: TimeDiceW never under-serves a replenishment period.
func naiveClaim(r any) error {
	row, ok := r.(*experiments.NaiveComparison).Row("TimeDiceW")
	if !ok || row.PeriodsShort != 0 {
		return fmt.Errorf("TimeDiceW under-served %d periods", row.PeriodsShort)
	}
	return nil
}

// paperWorkload regenerates every report section, as cmd/report does, once
// per round.
type paperWorkload struct {
	scale   experiments.Scale
	nSetups int

	reference [][sha256.Size]byte // per-section output hashes of the first regeneration
	digest    string
	buf       bytes.Buffer

	sectionsRun, sectionsFailed int
	firstFailure                error

	tracedRegens int
	sectionTime  []time.Duration
	trials       runner.MonitorSnapshot // MonitorState deltas over traced rounds
	tracedWall   time.Duration
}

func newPaper(sz size, seed uint64) *paperWorkload {
	sc := sz.Paper
	sc.Seed = seed
	sc.Parallel = workers
	return &paperWorkload{scale: sc, nSetups: sz.PaperSetups, sectionTime: make([]time.Duration, len(sections))}
}

func (p *paperWorkload) setups() int { return p.nSetups }

// setup is one full regeneration: its outputs are the reference every later
// regeneration must reproduce byte for byte.
func (p *paperWorkload) setup() error {
	p.regenerate(false)
	return nil
}

func (p *paperWorkload) round(traced bool, _ *[]float64) (roundStats, error) {
	return roundStats{units: 1, covered: p.regenerate(traced)}, nil
}

// regenerate runs every section once and returns the time spent inside them.
// A section fails when it errors, breaks its claim, or renders output that
// differs from the reference regeneration's.
func (p *paperWorkload) regenerate(traced bool) time.Duration {
	t0 := time.Now()
	m0 := runner.MonitorState()
	var inside time.Duration
	hashes := make([][sha256.Size]byte, len(sections))
	for i, s := range sections {
		p.buf.Reset()
		start := time.Now()
		res, err := s.run(p.scale, &p.buf)
		d := time.Since(start)
		inside += d
		if traced {
			p.sectionTime[i] += d
		}
		if err == nil && s.claim != nil {
			err = s.claim(res)
		}
		out := p.buf.String()
		if s.canon != nil {
			out = s.canon(out)
		}
		hashes[i] = sha256.Sum256([]byte(out))
		if err == nil && p.reference != nil && hashes[i] != p.reference[i] {
			err = errors.New("rendered output differs from the first regeneration")
		}
		p.sectionsRun++
		if err != nil {
			p.sectionsFailed++
			if p.firstFailure == nil {
				p.firstFailure = fmt.Errorf("%s: %w", s.name, err)
			}
			fmt.Fprintf(os.Stderr, "benchrec: paper-quick section %s: %v\n", s.name, err)
		}
	}
	if p.reference == nil {
		p.reference = hashes
		h := sha256.New()
		for _, x := range hashes {
			h.Write(x[:])
		}
		p.digest = hex.EncodeToString(h.Sum(nil))
	}
	if traced {
		m1 := runner.MonitorState()
		p.trials.Done += m1.Done - m0.Done
		p.trials.Failed += m1.Failed - m0.Failed
		p.tracedRegens++
		p.tracedWall += time.Since(t0)
	}
	return inside
}

func (p *paperWorkload) digestReady() bool { return p.digest != "" }

func (p *paperWorkload) finish(traced bool) (outcome, error) {
	var o outcome
	o.digest = p.digest
	o.attempted, o.failed = p.sectionsRun, p.sectionsFailed
	o.check("sections_pass", p.sectionsFailed == 0, "%d of %d sections failed; first: %v", p.sectionsFailed, p.sectionsRun, p.firstFailure)
	if !traced {
		return o, nil
	}
	regens := float64(p.tracedRegens)
	o.layers = map[string]float64{
		"runner.trials_per_regen": ratio(float64(p.trials.Done), regens),
		"runner.trials_failed":    float64(p.trials.Failed),
		"runner.trials_per_s":     ratio(float64(p.trials.Done), p.tracedWall.Seconds()),
	}
	for i, s := range sections {
		o.layers["experiments."+s.name+"_s"] = ratio(p.sectionTime[i].Seconds(), regens)
	}
	return o, nil
}
