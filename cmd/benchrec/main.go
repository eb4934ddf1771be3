package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is the measured time per run; BENCHMARK.json's run_seconds
// holds the same value.
const defaultSeconds = 15

// workloads lists the benchmark's workloads in run order.
var workloads = []struct {
	name string
	make func(sz size, seed uint64) benchWorkload
}{
	{"dense-P1024", func(sz size, seed uint64) benchWorkload { return newDense(sz, seed) }},
	{"sparse-P16384", func(sz size, seed uint64) benchWorkload { return newSparse(sz, seed) }},
	{"fuzz", func(sz size, seed uint64) benchWorkload { return newFuzz(sz, seed) }},
	{"paper-quick", func(sz size, seed uint64) benchWorkload { return newPaper(sz, seed) }},
}

//go:embed baseline.json
var baselineJSON []byte

// baseline is the part of baseline.json the benchmark reads back: the
// seed-1 digests every full-size run at seed 1 must reproduce.
type baseline struct {
	Seed1Digests map[string]string `json:"seed1_digests"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchrec", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload in this process (empty: every workload, each in child processes, untraced then traced)")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", defaultSeconds, "seconds of measurement per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	asJSON := fs.Bool("json", false, "print one JSON record per metric instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchrec: want -workload NAME -seed N -seconds S -trace 0|1 [-json] and no other arguments")
		return 2
	}
	if *name == "" {
		return orchestrate(stdout, *seed, *seconds, *asJSON)
	}
	res, err := runOne(*name, fullSize, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		return 1
	}
	if err := emit(stdout, res, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// result is one run of one workload.
type result struct {
	workload  string
	seed      uint64
	traced    bool
	digest    string
	checks    []checkResult
	attempted int
	failed    int
	metrics   map[string]float64
}

func (r result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return r.failed == 0
}

// runOne runs one workload at the given size and checks its outputs.
func runOne(name string, sz size, seed uint64, seconds time.Duration, trace bool) (result, error) {
	for _, wl := range workloads {
		if wl.name != name {
			continue
		}
		res, err := measure(wl.make(sz, seed), seconds, trace)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
		res.workload, res.seed, res.traced = name, seed, trace
		if seed == 1 && sz == fullSize {
			var b baseline
			if err := json.Unmarshal(baselineJSON, &b); err != nil {
				return result{}, fmt.Errorf("baseline.json: %w", err)
			}
			want := b.Seed1Digests[name]
			res.checks = append(res.checks, checkResult{
				name: "seed1_digest", ok: res.digest == want,
				msg: fmt.Sprintf("digest %s, recorded %q", res.digest, want),
			})
		}
		return res, nil
	}
	return result{}, fmt.Errorf("unknown workload %q", name)
}

// host identifies the machine a record was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func thisHost() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// record is one metric of one run, the unit of -json output.
type record struct {
	Name     string  `json:"name"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Traced   bool    `json:"traced"`
	Host     host    `json:"host"`
}

// digestRecord carries a run's sim_digest in -json output.
type digestRecord struct {
	SimDigest string `json:"sim_digest"`
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Traced    bool   `json:"traced"`
}

// summary is the last line of every run's output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints a run's metrics — text lines, or one JSON record each — then
// its digest and checks, then the summary line. Every declared metric of the
// run's kind is printed, in declaration order; an undeclared one is an error.
func emit(w io.Writer, r result, asJSON bool) error {
	decls := endToEnd
	if r.traced {
		decls = perLayer
	}
	known := map[string]bool{}
	sum := summary{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	h := thisHost()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if !asJSON {
		fmt.Fprintf(bw, "== %s seed=%d traced=%v\n", r.workload, r.seed, r.traced)
	}
	for _, d := range decls {
		known[d.name] = true
		v := r.metrics[d.name]
		sum.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if asJSON {
			if err := enc.Encode(record{d.name, v, d.unit, r.workload, r.seed, r.traced, h}); err != nil {
				return err
			}
		} else {
			fmt.Fprintf(bw, "%-38s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	for name := range r.metrics {
		if !known[name] {
			return fmt.Errorf("%s reported undeclared metric %q", r.workload, name)
		}
	}
	if asJSON {
		if err := enc.Encode(digestRecord{r.digest, r.workload, r.seed, r.traced}); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(bw, "%-38s %s\n", "sim_digest", r.digest)
		for _, c := range r.checks {
			verdict := "ok"
			if !c.ok {
				verdict = "FAIL: " + c.msg
			}
			fmt.Fprintf(bw, "check %-32s %s\n", c.name, verdict)
		}
	}
	for _, c := range r.checks {
		if !c.ok {
			fmt.Fprintf(os.Stderr, "benchrec: %s: check %s failed: %s\n", r.workload, c.name, c.msg)
		}
	}
	if err := enc.Encode(sum); err != nil {
		return err
	}
	return bw.Flush()
}

// orchestrate runs every workload, untraced then traced, each in a child
// process of this binary, passes their output through, and checks that the
// traced run reproduced the untraced run's digest.
func orchestrate(stdout io.Writer, seed uint64, seconds int, asJSON bool) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrec:", err)
		return 1
	}
	code := 0
	for _, wl := range workloads {
		var digests [2]string
		for trace := 0; trace <= 1; trace++ {
			args := []string{"-workload", wl.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-json"}
			res, err := child(exe, args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrec: %s trace=%d: %v\n", wl.name, trace, err)
				code = 1
			}
			if res.metrics == nil {
				continue // the child printed no result to pass through
			}
			digests[trace] = res.digest
			if err := emit(stdout, res, asJSON); err != nil {
				fmt.Fprintln(os.Stderr, "benchrec:", err)
				code = 1
			}
		}
		if digests[0] != digests[1] {
			fmt.Fprintf(os.Stderr, "benchrec: %s: traced digest %s != untraced digest %s\n", wl.name, digests[1], digests[0])
			code = 1
		}
	}
	return code
}

// child runs one workload in a child process and rebuilds its result from
// the child's -json output. Its failing checks reach stderr directly.
func child(exe string, args []string) (result, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	var sum summary
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil {
		return res, errors.Join(runErr, fmt.Errorf("no summary line: %w", err))
	}
	res.attempted, res.failed = sum.Attempted, sum.Failed
	res.metrics = map[string]float64{}
	for _, line := range lines[:len(lines)-1] {
		var m struct {
			Name      string  `json:"name"`
			Value     float64 `json:"value"`
			Workload  string  `json:"workload"`
			Seed      uint64  `json:"seed"`
			Traced    bool    `json:"traced"`
			SimDigest string  `json:"sim_digest"`
		}
		if err := json.Unmarshal(line, &m); err != nil {
			return res, err
		}
		res.workload, res.seed, res.traced = m.Workload, m.Seed, m.Traced
		if m.SimDigest != "" {
			res.digest = m.SimDigest
		} else {
			res.metrics[m.Name] = m.Value
		}
	}
	if !sum.Correct {
		res.checks = append(res.checks, checkResult{name: "child_correct", msg: "see the child's failing checks above"})
	}
	return res, runErr
}
