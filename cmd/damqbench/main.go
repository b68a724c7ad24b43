// Command damqbench is the repository's benchmark. It runs six workloads
// — the quick paper report, a 1024x1024 Omega network stepped serially
// and on two workers, a watched and checkpointed 256-input run, eight
// standalone 4x4 switch kinds, and the event-driven network with
// variable-length packets — each in a fresh child process, one after
// another. It checks that every simulated result is correct, prints
// every metric by name and unit, and writes them, with a record of the
// machine, to a JSON result file.
//
// An untraced run (-trace 0) reports the end-to-end metrics: setup_s,
// the median host time of 31 fresh set-up processes; wall_s, the host
// time of the workload's fixed simulated work; and rss_mb, the child's
// mean resident memory during that work. Both times are calibrated
// against the machine's current speed (calibrate.go). A traced run
// (-trace 1) times the calls into each simulator package from this
// package's own code and reports the per-layer metrics instead, writing
// the spans to <out>/spans-<workload>.json. README.md lists the
// workloads, both metric lists and which per-layer metric should move
// which end-to-end metric.
//
// Usage, from this directory:
//
//	go run .                                  # all six workloads, untraced
//	go run . -workload omega1024-w2 -trace 1  # one workload, traced
//	go run . -reps 5                          # median and quartiles of 5 runs
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits 1 when a
// check fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command's flags.
type options struct {
	workload      string
	seed          uint64
	seconds       int
	trace         int
	reps          int
	smoke         bool
	out           string
	updateDigests string
	child         bool
	setupOnly     bool
}

const (
	// setupRuns is how many fresh processes time a workload's set-up
	// (three under -smoke); process start-up on a shared machine is
	// noisy, and the median of many is steady.
	setupRuns = 31
	// childTimeout stops a child that hangs; every workload at the
	// default sizing ends in well under a minute.
	childTimeout = 170 * time.Second
)

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("damqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", digestSeed, "seed every workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement length the stepped workloads are sized for, 1-60")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: report the per-layer metrics and write the spans")
	fs.IntVar(&o.reps, "reps", 1, "run each workload this many times, each in fresh processes, and report medians and quartiles")
	fs.BoolVar(&o.smoke, "smoke", false, "cut every run to about a hundredth of its length")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "damqbench"), "directory for result.json and the span files")
	fs.StringVar(&o.updateDigests, "update-digests", "", "write the output digests this run computes into this file (testdata/digests.json); needs -seed 1988")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: with -child, stop once the simulators are built")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := o.validate(); err != nil {
		fmt.Fprintln(stderr, "damqbench:", err)
		return 2
	}
	if o.child {
		return runChild(o, stdout, stderr)
	}
	return runParent(o, stdout, stderr)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func (o options) validate() error {
	if _, ok := findWorkload(o.workload); !ok && (o.workload != "all" || o.child) {
		return fmt.Errorf("unknown workload %q (want all or one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	switch {
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	case o.seconds < 1 || o.seconds > 60:
		return fmt.Errorf("-seconds must be in 1..60, got %d", o.seconds)
	case o.reps < 1:
		return fmt.Errorf("-reps must be at least 1, got %d", o.reps)
	case o.updateDigests != "" && o.seed != digestSeed:
		return fmt.Errorf("-update-digests needs -seed %d", digestSeed)
	}
	return nil
}

// runWorkload runs one workload in this process and returns its report.
func runWorkload(w workload, o options) (childResult, error) {
	digests, err := loadDigests()
	if err != nil {
		return childResult{}, err
	}
	r := newRunner(w.name, o.seed, newScale(o.seconds, o.smoke), o.setupOnly, o.trace == 1, digests)
	r.updating = o.updateDigests != ""
	if err := w.run(r); err != nil {
		return childResult{}, fmt.Errorf("%s: %w", w.name, err)
	}
	if o.setupOnly {
		return r.res, nil
	}
	if err := r.finish(filepath.Join(o.out, "spans-"+w.name+".json")); err != nil {
		return childResult{}, fmt.Errorf("%s: writing spans: %w", w.name, err)
	}
	return r.res, nil
}

// runChild is the child-process side: run one workload, print its report.
func runChild(o options, stdout, stderr io.Writer) int {
	w, _ := findWorkload(o.workload)
	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "damqbench:", err)
		return 1
	}
	if o.setupOnly {
		return 0
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "damqbench:", err)
		return 1
	}
	return 0
}

// report is the result file: the machine, the settings, and per
// workload every metric's runs with their median and quartiles.
type report struct {
	Machine   machine          `json:"machine"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Smoke     bool             `json:"smoke"`
	Trace     int              `json:"trace"`
	Reps      int              `json:"reps"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string                   `json:"name"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Checks    []check                  `json:"checks"`
	Metrics   map[string]metricSummary `json:"metrics"`
	Info      map[string]metricSummary `json:"info"` // see childResult.Info
}

type metricSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// runParent runs the selected workloads -reps times each, in fresh child
// processes one after another, and reports.
func runParent(o options, stdout, stderr io.Writer) int {
	selected := workloads
	if o.workload != "all" {
		w, _ := findWorkload(o.workload)
		selected = []workload{w}
	}
	exe, err := os.Executable()
	if err == nil {
		err = os.MkdirAll(o.out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "damqbench:", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep := report{Machine: thisMachine(), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke, Trace: o.trace, Reps: o.reps}
	digests := map[string]string{}
	for _, w := range selected {
		wr := workloadReport{Name: w.name, Metrics: map[string]metricSummary{}, Info: map[string]metricSummary{}}
		runs, infos := map[string][]float64{}, map[string][]float64{}
		for i := 0; i < o.reps; i++ {
			m, cr, err := runOnce(ctx, exe, w, o, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "damqbench:", err)
				return 1
			}
			for k, v := range m {
				runs[k] = append(runs[k], v)
			}
			for k, v := range cr.Info {
				infos[k] = append(infos[k], v)
			}
			wr.Checks = append(wr.Checks, cr.Checks...)
			for k, v := range cr.Digests {
				digests[k] = v
			}
		}
		wr.Attempted, wr.Failed = tally(wr.Checks)
		for name, vs := range runs {
			def, _, _ := lookupMetric(name)
			wr.Metrics[name] = summarize(def.Unit, vs)
		}
		for name, vs := range infos {
			wr.Info[name] = summarize(infoUnits[name], vs)
		}
		printWorkload(stdout, wr, o)
		rep.Workloads = append(rep.Workloads, wr)
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(o.out, "result.json"), append(raw, '\n'), 0o644)
	}
	if err == nil && o.updateDigests != "" {
		err = writeDigests(o.updateDigests, digests)
	}
	if err != nil {
		fmt.Fprintln(stderr, "damqbench:", err)
		return 1
	}
	line := finalLine(rep)
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintln(stderr, "damqbench:", err)
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// infoUnits are the units of childResult.Info.
var infoUnits = map[string]string{"measured_s": "s", "slowdown": "ratio", "max_rss_mb": "MB"}

func summarize(unit string, vs []float64) metricSummary {
	return metricSummary{Unit: unit, Median: median(vs), Q1: quantile(vs, 0.25), Q3: quantile(vs, 0.75), Values: vs}
}

// runOnce runs a workload once: setupRuns set-up-only processes when
// untraced, then the measuring process.
func runOnce(ctx context.Context, exe string, w workload, o options, stderr io.Writer) (map[string]float64, childResult, error) {
	args := []string{"-child", "-workload", w.name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace), "-out", o.out}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.updateDigests != "" {
		args = append(args, "-update-digests", o.updateDigests)
	}
	m := map[string]float64{}
	if o.trace == 0 {
		// Calibrated like wall_s: a kernel sample before each set-up.
		var cal calibrator
		var setups []float64
		runs := setupRuns
		if o.smoke {
			runs = 3
		}
		for i := 0; i < runs; i++ {
			cal.sample(1)
			start := time.Now()
			if err := spawn(ctx, exe, append(args, "-setup-only"), io.Discard, stderr); err != nil {
				return nil, childResult{}, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		m["setup_s"] = cal.scale(median(setups))
	}
	var out bytes.Buffer
	if err := spawn(ctx, exe, args, &out, stderr); err != nil {
		return nil, childResult{}, fmt.Errorf("%s: %w", w.name, err)
	}
	var cr childResult
	if err := json.Unmarshal(out.Bytes(), &cr); err != nil {
		return nil, childResult{}, fmt.Errorf("%s: reading the child's report: %w", w.name, err)
	}
	for k, v := range cr.Metrics {
		m[k] = v
	}
	if o.trace == 1 {
		// A layer this workload does not exercise reports 0.
		for _, d := range perLayer {
			if _, ok := m[d.Name]; !ok {
				m[d.Name] = 0
			}
		}
	}
	return m, cr, nil
}

// spawn runs one child process to completion.
func spawn(ctx context.Context, exe string, args []string, stdout, stderr io.Writer) error {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		err = errors.Join(err, ctx.Err())
	}
	return err
}

// printWorkload prints one workload's metrics and any check that did
// not pass.
func printWorkload(w io.Writer, wr workloadReport, o options) {
	mode := "untraced"
	if o.trace == 1 {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s: seed %d, %d s, %s, %d run(s): %d checks passed, %d failed\n",
		wr.Name, o.seed, o.seconds, mode, o.reps, wr.Attempted-wr.Failed, wr.Failed)
	for _, c := range wr.Checks {
		if c.Status != "pass" {
			fmt.Fprintf(w, "  %s: %s (%s)\n", c.Status, c.Name, c.Detail)
		}
	}
	for _, m := range []map[string]metricSummary{wr.Metrics, wr.Info} {
		for _, name := range sortedKeys(m) {
			s := m[name]
			if o.reps > 1 {
				fmt.Fprintf(w, "  %-34s %14.6g %-8s [q1 %.6g, q3 %.6g]\n", name, s.Median, s.Unit, s.Q1, s.Q3)
			} else {
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, s.Median, s.Unit)
			}
		}
	}
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine summarizes the run: medians, keyed by metric name for one
// workload and by "<workload>.<metric>" for several.
func finalLine(rep report) resultLine {
	line := resultLine{Metrics: map[string]metricValue{}}
	for _, wr := range rep.Workloads {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		for name, s := range wr.Metrics {
			if len(rep.Workloads) > 1 {
				name = wr.Name + "." + name
			}
			line.Metrics[name] = metricValue{Value: s.Median, Unit: s.Unit}
		}
	}
	line.Correct = line.Attempted > 0 && line.Failed == 0
	return line
}
