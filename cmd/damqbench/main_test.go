package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the damqbench binary when
// the parent side of a test spawns its child processes.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "-child") {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !slices.Equal(xs, []float64{4, 1, 3, 2, 5}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
	if quantile(nil, 0.5) != 0 || median([]float64{7}) != 7 {
		t.Error("empty or single-sample quantile wrong")
	}
}

// TestCalibration: host seconds are scaled by how much slower than the
// reference the calibration kernel ran, and pace takes one sample per
// calPeriod of workload time, keeping the samples out of the timed wall.
func TestCalibration(t *testing.T) {
	var c calibrator
	if got := c.scale(3); got != 3 {
		t.Errorf("unsampled scale(3) = %v, want 3", got)
	}
	c.n, c.secs = 4, 4*2*calRefSecs // twice as slow as the reference
	if got := c.scale(10); !near(got, 5) {
		t.Errorf("scale(10) at half speed = %v, want 5", got)
	}

	r := newRunner(wW1, 1, newScale(10, false), false, false, digestFile{})
	r.startTimed()
	r.pace(250 * time.Millisecond)
	if r.cal.n != 2 || r.calDue != 50*time.Millisecond {
		t.Errorf("after 250 ms: %d samples, %v due; want 2 and 50ms", r.cal.n, r.calDue)
	}
	if r.cal.secs <= 0 || r.excluded <= 0 {
		t.Errorf("samples took %v s, %v excluded from the wall", r.cal.secs, r.excluded)
	}
	r.pace(50 * time.Millisecond)
	if r.cal.n != 3 || r.calDue != 0 {
		t.Errorf("after 300 ms: %d samples, %v due; want 3 and 0", r.cal.n, r.calDue)
	}

	// The kernel is a working switch: every slot is either free or queued.
	s := &r.cal.ref
	for in := 0; in < 4; in++ {
		n := 0
		for slot := s.free[in]; slot >= 0; slot = s.next[in][slot] {
			n++
		}
		for out := 0; out < 4; out++ {
			for slot := s.head[in][out]; slot >= 0; slot = s.next[in][slot] {
				n++
			}
		}
		if n != 4 {
			t.Errorf("input %d: %d slots reachable, want 4", in, n)
		}
	}
	if want := 3 * calCycles * 3; s.delivered < want {
		t.Errorf("%d packets delivered in %d cycles, want at least %d", s.delivered, 3*calCycles, want)
	}
}

// TestSelfTime: a span's self time is its duration less its children's
// durations and the calls folded under it.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "bench.workload", Start: 0, End: 100, Parent: -1},
		{Name: "netsim.Sim.Step", Start: 10, End: 40, Parent: 0},
		{Name: "bench.cell/DAMQ", Start: 50, End: 90, Parent: 0},
	}
	f := &fold{Name: "sw.Switch.Offer/DAMQ", Parent: 2}
	f.add(5)
	f.add(7)
	computeSelf(spans, []*fold{f})
	for i, want := range []int64{30, 30, 28} {
		if spans[i].Self != want {
			t.Errorf("%s self = %d, want %d", spans[i].Name, spans[i].Self, want)
		}
	}

	tr := &tracer{spans: spans, folds: []*fold{f}, readNs: 1}
	if got := tr.layerNs("", 0); !near(got, 29+10) {
		t.Errorf("layerNs(all) = %v, want 39 (bench spans excluded, one read per region removed)", got)
	}
	if got := tr.layerNs("sw.Switch.Offer", 2); !near(got, 10) {
		t.Errorf("layerNs(Offer under cell) = %v, want 10", got)
	}
	if got := tr.layerNs("netsim.Sim.Step", 2); got != 0 {
		t.Errorf("layerNs(Step under cell) = %v, want 0", got)
	}
	if got := tr.regionsUnder(0); got != 4 {
		t.Errorf("regionsUnder(root) = %d, want 4", got)
	}
}

func TestFoldQuantiles(t *testing.T) {
	for _, v := range []int64{0, 1, 3, 4, 7, 8, 9, 100, 1 << 40} {
		lo, w := bucketRange(bucketOf(v))
		if v < lo || v >= lo+w {
			t.Errorf("%d falls outside its bucket [%d, %d)", v, lo, lo+w)
		}
	}
	var f fold
	for i := int64(1); i <= 1000; i++ {
		f.add(i)
	}
	if p := f.quantile(0.5); math.Abs(float64(p)-500) > 500*0.125 {
		t.Errorf("p50 = %d, want 500 within 12.5%%", p)
	}
	if p := f.quantile(0.99); math.Abs(float64(p)-990) > 990*0.125 {
		t.Errorf("p99 = %d, want 990 within 12.5%%", p)
	}
}

// validName is the rule BENCHMARK.json names follow.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNames(t *testing.T) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		names = append(names, d.Name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !validName.MatchString(n) {
			t.Errorf("name %q breaks ^[A-Za-z0-9_.-]+$ or its length limit", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, bad := range []string{"", "_x", "a/b", "a b", strings.Repeat("a", 65)} {
		if validName.MatchString(bad) {
			t.Errorf("validName accepts %q", bad)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed what BENCHMARK.json allows", len(perLayer), len(endToEnd))
	}
}

// TestBenchmarkJSONMatchesCode: BENCHMARK.json at the repository root
// declares exactly the workloads and metrics this package runs and emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if got := sortedKeys(keys); !slices.Equal(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bench struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bench); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bench.Paths, []string{"cmd/damqbench"}) || !slices.Equal(bench.Command, []string{"bash", "cmd/damqbench/run.sh"}) {
		t.Errorf("command %v, paths %v", bench.Command, bench.Paths)
	}
	if bench.RunSeconds != 10 {
		t.Errorf("run_seconds %d: the workloads are sized for 10", bench.RunSeconds)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bench.Workloads[i]; got.Name != w.name || got.Why != w.why || got.Unit != "" || got.Bound != nil {
			t.Errorf("workload %d: declared %+v, code has %q: %q", i, got, w.name, w.why)
		}
	}
	check := func(list string, got []entry, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d declared, %d in code", list, len(got), len(defs))
			return
		}
		for i, d := range defs {
			g := got[i]
			ok := g.Name == d.Name && g.Unit == d.Unit && g.Better == d.Better && g.Why == "" && (g.Bound != nil) == bounded
			if ok && bounded {
				ok = *g.Bound == d.Bound && d.Bound > 0 && d.Bound <= 0.25
			}
			if !ok {
				t.Errorf("%s[%d]: declared %+v, code has %+v", list, i, g, d)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd, true)
	check("per_layer", bench.PerLayer, perLayer, false)
}

// TestSmokeEmitsDeclaredMetrics runs all six workloads at -smoke scale:
// untraced through the parent, which spawns this test binary as its
// child processes, and traced in this process. Every check must pass,
// the committed smoke digests must be checked rather than skipped, and
// each run must emit exactly its declared metrics.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("untraced smoke run exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < len(workloads) {
		t.Errorf("result line %+v", last)
	}
	var wantE2E []string
	for _, w := range workloads {
		for _, d := range endToEnd {
			wantE2E = append(wantE2E, w.name+"."+d.Name)
		}
	}
	sort.Strings(wantE2E)
	if got := sortedKeys(last.Metrics); !slices.Equal(got, wantE2E) {
		t.Errorf("untraced metrics %v, want %v", got, wantE2E)
	}
	for name, v := range last.Metrics {
		if !(v.Value > 0) {
			t.Errorf("%s = %v; end-to-end metrics are never 0", name, v.Value)
		}
	}
	var rep report
	raw, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err == nil {
		err = json.Unmarshal(raw, &rep)
	}
	if err != nil {
		t.Fatal(err)
	}
	if rep.Machine.GoVersion == "" || rep.Machine.NumCPU < 1 {
		t.Errorf("machine record incomplete: %+v", rep.Machine)
	}
	for _, wr := range rep.Workloads {
		for _, c := range wr.Checks {
			if c.Status != "pass" {
				t.Errorf("%s: %s %s (%s)", wr.Name, c.Status, c.Name, c.Detail)
			}
		}
	}

	for _, w := range workloads {
		res, err := runWorkload(w, options{seed: digestSeed, seconds: 10, smoke: true, trace: 1, out: out})
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, d := range perLayer {
			if d.measuredOn(w.name) {
				want = append(want, d.Name)
			}
		}
		sort.Strings(want)
		if got := sortedKeys(res.Metrics); !slices.Equal(got, want) {
			t.Errorf("%s traced: emitted %v, declared %v", w.name, got, want)
		}
		if _, failed := tally(res.Checks); failed > 0 {
			t.Errorf("%s traced: %d checks failed: %+v", w.name, failed, res.Checks)
		}
		if _, err := os.Stat(filepath.Join(out, "spans-"+w.name+".json")); err != nil {
			t.Errorf("%s traced: no span file: %v", w.name, err)
		}
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"-reps", "0"},
		{"-update-digests", "x.json", "-seed", "7"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want 2 and nothing printed", args, code, out.String())
		}
	}
}
