// Command benchreport runs the repository's benchmarks and writes a
// machine-readable snapshot, so allocation and speed regressions in the
// simulator hot path show up as a diff in a committed JSON file rather
// than an anecdote. BENCH_netsim.json at the repo root is the recorded
// baseline; regenerate it after intentional performance work with:
//
//	go run ./cmd/benchreport -pkg ./... \
//	    -bench 'BenchmarkNetworkCycle|BenchmarkChipNetworkPacket|BenchmarkAsyncEvent|BenchmarkAsyncExtension|BenchmarkDamqvetAnalysis|BenchmarkPolicyAdmit|BenchmarkGang|BenchmarkArbitrate$' \
//	    -count 5 -notime 'Sharded|Damqvet|Gang' -out BENCH_netsim.json
//
// The regex spans packages (the async event-engine benchmarks live in
// internal/eventsim, the analyzer benchmark in cmd/damqvet), so -pkg is
// ./...; entries fold by benchmark name, which therefore must stay
// unique across the repository. BenchmarkNetworkCycle is unanchored, so
// it selects every network-cycle benchmark: dense, low-load, observed,
// discarding (BenchmarkNetworkCycleDiscarding) and the 1024-input ones.
//
// -notime names benchmarks whose wall-clock is not comparable across
// machines — the multi-worker sharded benchmarks and the worker gang's
// barrier round trip, whose ns/op depends on the core count of whatever
// ran them, and the damqvet analysis pass,
// whose ns/op scales with fixture size. Matching entries record -1 ns/op
// (so -check skips the time gate for them) while their B/op and
// allocs/op stay recorded and gated exactly like everything else.
//
// Each benchmark is run -count times and the per-metric minimum is
// recorded: minima are the stable statistic under machine noise (ns/op
// can only be inflated by interference, never deflated; B/op and
// allocs/op are deterministic and identical across runs).
//
// With -check, benchreport instead re-runs the baseline's benchmarks and
// fails (exit 1) when any of them regressed:
//
//	go run ./cmd/benchreport -check -tol 0.25
//
// allocs/op is an exact gate — it is machine-independent, so any increase
// is a real regression. ns/op and B/op get the -tol relative headroom
// (B/op also a small absolute slack) to absorb machine-to-machine noise.
// A benchmark that improved beyond the tolerance prints a note suggesting
// a baseline refresh but does not fail the check.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's recorded metrics.
type Entry struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	Iterations  int64   `json:"iterations"` // of the fastest run
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the snapshot file's schema.
type Report struct {
	Package    string  `json:"package"`
	BenchRegex string  `json:"bench_regex"`
	NoTime     string  `json:"notime_regex,omitempty"`
	Count      int     `json:"count"`
	GoVersion  string  `json:"go_version"`
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	pkg := flag.String("pkg", ".", "package to benchmark")
	bench := flag.String("bench", "BenchmarkNetworkCycle|BenchmarkChipNetworkPacket",
		"regexp passed to go test -bench")
	count := flag.Int("count", 3, "runs per benchmark; the minimum of each metric is recorded")
	notime := flag.String("notime", "", "regexp of benchmarks whose ns/op is machine-dependent (e.g. multi-worker shards); recorded as -1 so -check gates only their allocations")
	out := flag.String("out", "", "output JSON path (default stdout)")
	check := flag.Bool("check", false, "compare a fresh run against -baseline and exit 1 on regression")
	baseline := flag.String("baseline", "BENCH_netsim.json", "baseline snapshot for -check")
	tol := flag.Float64("tol", 0.25, "relative ns/op and B/op headroom for -check (0.25 = +25%)")
	flag.Parse()

	if *check {
		runCheck(*baseline, *tol)
		return
	}

	entries := run(*pkg, *bench, *count)
	if len(entries) == 0 {
		fatal(fmt.Errorf("no benchmark lines matched %q in %s", *bench, *pkg))
	}
	if *notime != "" {
		re, err := regexp.Compile(*notime)
		if err != nil {
			fatal(fmt.Errorf("bad -notime regexp: %w", err))
		}
		stripTimes(entries, re)
	}

	rep := Report{
		Package:    *pkg,
		BenchRegex: *bench,
		NoTime:     *notime,
		Count:      *count,
		GoVersion:  goVersion(),
		Benchmarks: entries,
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d benchmarks to %s\n", len(entries), *out)
}

// run executes the benchmarks and returns the folded entries.
func run(pkg, bench string, count int) []Entry {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", bench, "-benchmem", "-count", strconv.Itoa(count), pkg)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fatal(fmt.Errorf("go test -bench: %w", err))
	}
	entries, err := parse(string(raw))
	if err != nil {
		fatal(err)
	}
	return entries
}

// stripTimes erases the wall-clock metric of entries matching the
// -notime regexp: NsPerOp becomes -1, which compare treats as "no time
// gate". Allocation metrics are untouched.
func stripTimes(entries []Entry, re *regexp.Regexp) {
	for i := range entries {
		if re.MatchString(entries[i].Name) {
			entries[i].NsPerOp = -1
			entries[i].Iterations = 0
		}
	}
}

// runCheck re-runs the baseline's benchmarks and fails on regression.
func runCheck(baselinePath string, tol float64) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fatal(fmt.Errorf("read baseline: %w", err))
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parse baseline %s: %w", baselinePath, err))
	}
	if len(base.Benchmarks) == 0 {
		fatal(fmt.Errorf("baseline %s records no benchmarks", baselinePath))
	}
	fresh := run(base.Package, base.BenchRegex, base.Count)
	problems, notes := compare(base.Benchmarks, fresh, tol)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "REGRESSION:", p)
		}
		fmt.Fprintf(os.Stderr, "benchreport: %d regression(s) vs %s (tolerance %.0f%%)\n",
			len(problems), baselinePath, tol*100)
		os.Exit(1)
	}
	fmt.Printf("benchreport: %d benchmarks within tolerance of %s\n", len(base.Benchmarks), baselinePath)
}

// bytesSlack is the absolute B/op allowance on top of the relative
// tolerance, so near-zero baselines (0 or 1 B/op) are not failed by a
// few stray bytes of amortized growth.
const bytesSlack = 64

// compare checks every baseline entry against the fresh run. It returns
// regressions (which fail the check) and notes (improvements worth a
// baseline refresh). allocs/op is exact: it does not vary with machine
// speed, so any increase is a real change in the code's behavior.
func compare(base, fresh []Entry, tol float64) (problems, notes []string) {
	byName := map[string]Entry{}
	for _, e := range fresh {
		byName[e.Name] = e
	}
	for _, b := range base {
		f, ok := byName[b.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: benchmark missing from fresh run", b.Name))
			continue
		}
		if b.NsPerOp >= 0 {
			limit := b.NsPerOp * (1 + tol)
			switch {
			case f.NsPerOp > limit:
				problems = append(problems, fmt.Sprintf("%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%%",
					b.Name, f.NsPerOp, b.NsPerOp, tol*100))
			case f.NsPerOp < b.NsPerOp*(1-tol):
				notes = append(notes, fmt.Sprintf("%s: %.0f ns/op is >%.0f%% faster than baseline %.0f ns/op; consider refreshing the baseline",
					b.Name, f.NsPerOp, tol*100, b.NsPerOp))
			}
		}
		if b.AllocsPerOp >= 0 && f.AllocsPerOp > b.AllocsPerOp {
			problems = append(problems, fmt.Sprintf("%s: %d allocs/op exceeds baseline %d allocs/op",
				b.Name, f.AllocsPerOp, b.AllocsPerOp))
		}
		if b.AllocsPerOp >= 0 && f.AllocsPerOp < b.AllocsPerOp {
			notes = append(notes, fmt.Sprintf("%s: %d allocs/op improved on baseline %d allocs/op; consider refreshing the baseline",
				b.Name, f.AllocsPerOp, b.AllocsPerOp))
		}
		if b.BytesPerOp >= 0 {
			limit := float64(b.BytesPerOp)*(1+tol) + bytesSlack
			if float64(f.BytesPerOp) > limit {
				problems = append(problems, fmt.Sprintf("%s: %d B/op exceeds baseline %d B/op beyond tolerance",
					b.Name, f.BytesPerOp, b.BytesPerOp))
			}
		}
	}
	return problems, notes
}

// parse extracts benchmark result lines of the form
//
//	BenchmarkName-8   1234   56789 ns/op   42 B/op   7 allocs/op
//
// and folds repeated runs of one benchmark into per-metric minima.
func parse(out string) ([]Entry, error) {
	byName := map[string]*Entry{}
	var order []string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Strip the -GOMAXPROCS suffix so snapshots diff cleanly across
		// machines.
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad iteration count in %q", sc.Text())
		}
		e, ok := byName[name]
		if !ok {
			e = &Entry{Name: name, NsPerOp: -1, BytesPerOp: -1, AllocsPerOp: -1}
			byName[name] = e
			order = append(order, name)
		}
		e.Runs++
		// Metric fields come in (value, unit) pairs after the iteration
		// count.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value in %q", sc.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				if e.NsPerOp < 0 || v < e.NsPerOp {
					e.NsPerOp = v
					e.Iterations = iters
				}
			case "B/op":
				if e.BytesPerOp < 0 || int64(v) < e.BytesPerOp {
					e.BytesPerOp = int64(v)
				}
			case "allocs/op":
				if e.AllocsPerOp < 0 || int64(v) < e.AllocsPerOp {
					e.AllocsPerOp = int64(v)
				}
			}
		}
	}
	sort.Strings(order)
	entries := make([]Entry, 0, len(order))
	for _, name := range order {
		entries = append(entries, *byName[name])
	}
	return entries, nil
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}
