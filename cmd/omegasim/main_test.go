package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"damq/internal/cli"
	"damq/internal/experiments"
)

// TestFaultRates pins -exp faults' reading of -faults: only the
// link-transient rate shapes the curve, so a spec that sets any other
// field is an error naming that field rather than a silent drop.
func TestFaultRates(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		rates []float64
		bad   string // the field the error must name; "" = no error
	}{
		{"linktransient=1e-3", []float64{0, 1e-3}, ""},
		{" LinkTransient = 0.01 , ", []float64{0, 0.01}, ""},
		{"linktransient=0", nil, ""},
		{"linktransient=1e-3,seed=7", nil, "seed"},
		{"slotstuck=1e-5", nil, "slotstuck"},
		{"linktransient=1e-3,wirecorrupt=0.05", nil, "wirecorrupt"},
		{"linkdead=1e-6", nil, "linkdead"},
		{"retries=4", nil, "retries"},
		{"backoff=3", nil, "backoff"},
		{"linktransient=oops", nil, "oops"},
	} {
		rates, err := faultRates(tc.spec)
		if tc.bad == "" {
			if err != nil || !reflect.DeepEqual(rates, tc.rates) {
				t.Errorf("faultRates(%q) = %v, %v; want %v", tc.spec, rates, err, tc.rates)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("faultRates(%q) = %v, %v; want an error naming %q", tc.spec, rates, err, tc.bad)
		}
	}
}

// TestSweepCSV runs a one-cell sweep into a file, then checks that bad
// grid flags and an unwritable output path fail instead of reporting
// success.
func TestSweepCSV(t *testing.T) {
	sc := experiments.Scale{Warmup: 20, Measure: 100, Seed: 1, Workers: 1}
	path := filepath.Join(t.TempDir(), "grid.csv")
	if err := sweep(sc, path, "fifo", "0.3", "4", "blocking", "smart", "uniform", 0, 4); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(raw)), "\n"); len(lines) != 2 || !strings.HasPrefix(lines[1], "FIFO,4,0.3,") {
		t.Fatalf("CSV = %q; want a header and one FIFO row", raw)
	}
	for _, tc := range []struct {
		name, path, kinds, traffic, want string
	}{
		{"unknown kind", "", "nope", "uniform", "nope"},
		{"unknown traffic", "", "fifo", "permutation", "permutation"},
		{"unwritable path", filepath.Join(t.TempDir(), "missing", "grid.csv"), "fifo", "uniform", "missing"},
	} {
		err := sweep(sc, tc.path, tc.kinds, "0.3", "4", "blocking", "smart", tc.traffic, 0, 4)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: sweep = %v; want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestReportSections pins the assembly of -exp report through the
// interrupt message of a cancelled run: its denominator counts the
// titled sections, 17 for the paper report, one fewer without Table 2
// and one more for each of the -metrics and -reps companions.
func TestReportSections(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := experiments.Scale{Warmup: 5, Measure: 10, Seed: 1, Workers: 1, Ctx: ctx}
	metrics := filepath.Join(t.TempDir(), "ramp.json")
	for _, tc := range []struct {
		skipMarkov bool
		metrics    string
		reps       int
		total      int
	}{
		{false, "", 0, 17},
		{true, "", 0, 16},
		{false, metrics, 0, 18},
		{false, "", 3, 18},
		{true, metrics, 3, 18},
	} {
		entries := reportSections(tc.skipMarkov, tc.metrics, tc.reps)
		err := printReport(io.Discard, sc, &experiments.Report{}, entries)
		want := fmt.Sprintf("/%d sections", tc.total)
		if !cli.Canceled(err) || !strings.Contains(fmt.Sprint(err), want) {
			t.Errorf("skip-markov=%v metrics=%q reps=%d: %v; want an interrupt naming %q",
				tc.skipMarkov, tc.metrics, tc.reps, err, want)
		}
	}
	if _, err := os.Stat(metrics); !os.IsNotExist(err) {
		t.Error("a report cancelled before its -metrics section wrote the snapshot")
	}
}

// TestTable2Cell checks -exp table2 -kind: a valid cell renders its
// chain, and a kind or slot count the exact 2x2 model cannot solve is an
// error before any output.
func TestTable2Cell(t *testing.T) {
	text, err := table2Cell("damq", 3, 0.9, 1000, 1)
	if err != nil || !strings.Contains(text, "chain states  94\n") || !strings.Contains(text, "over 1000 cycles (seed 1)") {
		t.Fatalf("table2Cell(damq, 3, 0.9) = %q, %v", text, err)
	}
	for _, tc := range []struct {
		kind  string
		slots int
		want  string
	}{
		{"samq", 3, "even slot count"},
		{"nope", 4, "nope"},
		{"fb", 4, "FB"},
	} {
		text, err := table2Cell(tc.kind, tc.slots, 0.9, 0, 1988)
		if err == nil || text != "" || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("table2Cell(%s, %d) = %q, %v; want no text and an error mentioning %q", tc.kind, tc.slots, text, err, tc.want)
		}
	}
}

// TestChipTrace checks -exp chip: -bytes outside 1..32 is rejected, and
// the default 8-byte packet cuts through in the paper's four cycles.
func TestChipTrace(t *testing.T) {
	for _, n := range []int{0, 33} {
		if _, err := chipTrace(context.Background(), n, false, ""); err == nil || !strings.Contains(err.Error(), "-bytes") {
			t.Errorf("chipTrace(bytes=%d) = %v; want a -bytes error", n, err)
		}
	}
	text, err := chipTrace(context.Background(), 8, false, "")
	if err != nil || !strings.Contains(text, "turn-around: 4 clock cycles") ||
		!strings.Contains(text, "delivered at output 1: header 0x02, 8 bytes") {
		t.Fatalf("chipTrace(8) = %q, %v; want a 4-cycle turn-around and one delivered packet", text, err)
	}
}
