package experiments

import (
	"strings"
	"testing"

	"damq/internal/buffer"
)

func TestSeeds(t *testing.T) {
	s := Seeds(10, 5)
	if len(s) != 5 {
		t.Fatalf("len = %d", len(s))
	}
	seen := map[uint64]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatal("duplicate seed")
		}
		seen[v] = true
	}
	if s[0] != 10 {
		t.Fatalf("base seed not first: %v", s)
	}
}

func TestSaturationCI(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated saturation runs")
	}
	rows, err := SaturationCI(3, tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var damq, fifo CIRow
	for _, r := range rows {
		if r.Summary.N() != 3 {
			t.Fatalf("%v: %d replicates", r.Kind, r.Summary.N())
		}
		// Across-seed variation of a saturation throughput must be small
		// relative to the mean (the measurement is stable).
		if r.Summary.CI95() > 0.15*r.Summary.Mean() {
			t.Errorf("%v: CI %v too wide for mean %v", r.Kind, r.Summary.CI95(), r.Summary.Mean())
		}
		switch r.Kind {
		case buffer.DAMQ:
			damq = r
		case buffer.FIFO:
			fifo = r
		}
	}
	// The DAMQ-FIFO gap must dwarf both CIs: the headline result is not
	// a seed artifact.
	gap := damq.Summary.Mean() - fifo.Summary.Mean()
	if gap < 3*(damq.Summary.CI95()+fifo.Summary.CI95()) {
		t.Errorf("gap %v not clearly outside noise (CIs %v, %v)",
			gap, damq.Summary.CI95(), fifo.Summary.CI95())
	}
	if !strings.Contains(RenderCI(rows), "95% CI") {
		t.Error("render missing header")
	}
}
