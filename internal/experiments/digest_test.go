package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/netsim"
	"damq/internal/sw"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/sweep_digests.json")

// sweepDigestsPath pins the bytes of the network sweeps the other
// golden files do not cover. Regenerate with
// `go test ./internal/experiments -run SweepDigests -update` only after
// an intended change of simulated behaviour or of a renderer.
var sweepDigestsPath = filepath.Join("testdata", "sweep_digests.json")

// digestScale is short enough to run every pinned sweep in a few seconds.
var digestScale = Scale{Warmup: 100, Measure: 500, Seed: 1988}

// gridCSV runs g and returns its CSV.
func gridCSV(g Grid, sc Scale) (string, error) {
	points, err := g.Run(sc)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	err = WriteCSV(&b, points)
	return b.String(), err
}

// TestSweepDigests pins the rendered modern, radix and faults sections,
// the replicated saturation table and two Grid sweep CSVs by sha256, so
// a refactor of how experiments reach the simulator must leave every
// byte of them unchanged.
func TestSweepDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every pinned sweep")
	}
	sc := digestScale
	outputs := map[string]func() (string, error){
		"modern": func() (string, error) {
			s, err := Modern(nil, 4, nil, sc)
			return RenderModern(s), err
		},
		"radix": func() (string, error) {
			rows, err := RadixSweep(sc)
			return RenderRadix(rows), err
		},
		"faults": func() (string, error) {
			rows, err := FaultCurve(nil, nil, sc)
			return RenderFaultCurve(rows), err
		},
		"saturation-ci": func() (string, error) {
			rows, err := SaturationCI(2, sc)
			return RenderCI(rows), err
		},
		"grid-hotspot": func() (string, error) {
			return gridCSV(Grid{
				Kinds:       KindOrder,
				Loads:       []float64{0.1, 0.2, 0.3},
				Capacities:  []int{4, 8},
				Protocol:    sw.Blocking,
				Policy:      arbiter.Smart,
				Traffic:     netsim.HotSpot,
				HotFraction: 0.05,
			}, sc)
		},
		"grid-bursty": func() (string, error) {
			return gridCSV(Grid{
				Kinds:      []buffer.Kind{buffer.FIFO, buffer.DAMQ},
				Loads:      []float64{0.2, 0.4, 0.8},
				Capacities: []int{2, 4},
				Protocol:   sw.Discarding,
				Policy:     arbiter.Smart,
				Traffic:    netsim.Bursty,
				MeanBurst:  3,
			}, sc)
		},
	}
	want := map[string]string{}
	if raw, err := os.ReadFile(sweepDigestsPath); err == nil {
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", sweepDigestsPath, err)
		}
	} else if !*updateDigests {
		t.Fatal(err)
	}
	got := map[string]string{}
	for name, run := range outputs {
		text, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256([]byte(text))
		got[name] = hex.EncodeToString(sum[:])
		if !*updateDigests && got[name] != want[name] {
			t.Errorf("%s: digest %s, want %s; output:\n%s", name, got[name], want[name], text)
		}
	}
	if *updateDigests {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sweepDigestsPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
