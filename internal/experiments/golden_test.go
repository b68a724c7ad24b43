package experiments

import (
	"os"
	"testing"
)

// TestTable2Golden pins the full exact Table 2 output against a recorded
// golden file. The Markov solution is deterministic (no sampling), so any
// diff means the model, the arbitration rule, or the solver changed —
// exactly the regressions this repo must catch. Regenerate with:
//
//	go run ./cmd/omegasim -exp table2 > internal/experiments/testdata/table2.golden
//
// after convincing yourself the change is intentional.
func TestTable2Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 128 chains")
	}
	want, err := os.ReadFile("testdata/table2.golden")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Table2(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Render()
	if got != string(want) {
		t.Errorf("Table 2 output changed.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
