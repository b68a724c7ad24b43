package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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
