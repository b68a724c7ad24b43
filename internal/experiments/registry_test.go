package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestSectionsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick evaluation")
	}
	// Short windows: this checks the plumbing from every section into
	// the report, not the numbers.
	sc := Scale{Warmup: 100, Measure: 500, Seed: 3}
	rep := &Report{Scale: sc}
	for _, s := range Sections(nil) {
		if s.Name == "table2" {
			continue
		}
		text, err := s.Run(sc, rep)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if text == "" {
			t.Errorf("%s rendered nothing", s.Name)
		}
	}
	if rep.Table2 != nil {
		t.Error("markov should have been skipped")
	}
	if rep.Table1 == nil || rep.Table3 == nil || len(rep.Table4) == 0 ||
		len(rep.Async) == 0 || len(rep.Ablate.Burstiness) == 0 {
		t.Fatal("report incomplete")
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	// Round trip: the JSON must decode back into an equivalent skeleton.
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Table4) != len(rep.Table4) || back.Table4[0].Kind != rep.Table4[0].Kind {
		t.Fatal("round trip lost data")
	}
	if !strings.Contains(string(raw), "\"table6\"") {
		t.Error("JSON missing sections")
	}
	if len(rep.Curves) == 0 || strings.Contains(string(raw), "\"Curves\"") {
		t.Error("figure3 curves must be kept for plotting but left out of the JSON")
	}
}

// TestSectionNames pins the registry's shape: names are unique across
// the report and the extras, and the report opens with a titled section.
func TestSectionNames(t *testing.T) {
	report := Sections(nil)
	if report[0].Title == "" {
		t.Error("the report must open with a titled section")
	}
	seen := map[string]bool{}
	for _, s := range append(report, Extras(nil)...) {
		if seen[s.Name] {
			t.Errorf("duplicate name %q", s.Name)
		}
		seen[s.Name] = true
	}
	for _, name := range []string{"table1", "table2", "figure3", "a4", "modern", "ablation"} {
		if !seen[name] {
			t.Errorf("missing %q", name)
		}
	}
}

// TestTable2SectionCancels checks that Table 2, the report's slowest
// exact section, stops on the scale's context instead of solving every
// chain, and still renders the table's header and the rows it finished.
func TestTable2SectionCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := Quick
	sc.Ctx = ctx
	for _, s := range Sections(nil) {
		if s.Name != "table2" {
			continue
		}
		rep := &Report{}
		text, err := s.Run(sc, rep)
		if rep.Table2 == nil || len(rep.Table2.Rows) >= len(Table2Specs()) {
			t.Fatalf("cancelled Table 2 solved every chain: %+v", rep.Table2)
		}
		if !errors.Is(err, context.Canceled) || text != rep.Table2.Render() || !strings.HasPrefix(text, "Table 2:") {
			t.Fatalf("Run = %q, %v; want the partial table and context.Canceled", text, err)
		}
		return
	}
	t.Fatal("no table2 section")
}

// TestRadixAndAsyncSectionsCancel checks that the radix sweep and the
// event-driven grid take their cancellation from the scale like every
// other section: a cancelled context yields no text and
// context.Canceled instead of a full run.
func TestRadixAndAsyncSectionsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sc := Quick
	sc.Ctx = ctx
	want := map[string]bool{"radix": true, "async": true}
	for _, s := range Sections(nil) {
		if !want[s.Name] {
			continue
		}
		delete(want, s.Name)
		text, err := s.Run(sc, &Report{})
		if !errors.Is(err, context.Canceled) || text != "" {
			t.Errorf("%s: Run = %q, %v; want no text and context.Canceled", s.Name, text, err)
		}
	}
	for name := range want {
		t.Errorf("no %s section", name)
	}
}
