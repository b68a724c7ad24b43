// Command experiments reruns the entire evaluation — every table and
// figure of the paper — and prints a consolidated report. With -scale
// full it produces the numbers recorded in EXPERIMENTS.md (several
// minutes); -scale quick is a fast smoke version.
//
// Usage:
//
//	experiments -scale full > report.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"

	"damq"
	"damq/internal/cli"
	"damq/internal/experiments"
	"damq/internal/netsim"
)

func main() {
	scaleName := flag.String("scale", "quick", "simulation scale: quick|full")
	skipMarkov := flag.Bool("skip-markov", false, "skip Table 2 (the slowest exact computation)")
	jsonPath := flag.String("json", "", "also write the machine-readable report to this path")
	reps := flag.Int("reps", 0, "replicate the saturation measurement across this many seeds, run concurrently on -workers goroutines (0 = skip)")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	metricsPath := flag.String("metrics", "", "run one instrumented over-subscribed DAMQ simulation, write its metrics snapshot (with time series) to this path, and report the Figure-3-style curve recovered from it")
	flag.Parse()

	// SIGINT/SIGTERM cancel the remaining experiments cooperatively: the
	// sections already printed stand, and the exit message reports how
	// far the report got.
	cli.Main("experiments", func(ctx context.Context) error {
		sc, err := experiments.ParseScale(*scaleName)
		if err != nil {
			return err
		}
		sc.Workers, sc.Ctx = *workers, ctx

		entries := experiments.Sections(time.Now)
		if *skipMarkov {
			entries = slices.DeleteFunc(entries, func(s experiments.Section) bool { return s.Name == "table2" })
		}
		if *metricsPath != "" {
			entries = append(entries, metricsSection(*metricsPath))
		}
		if *reps > 0 {
			entries = append(entries, experiments.Section{
				Title: fmt.Sprintf("Replication — saturation throughput across %d seeds", *reps),
				Run: experiments.Entry(func(sc experiments.Scale) ([]experiments.CIRow, error) {
					return experiments.SaturationCI(*reps, sc)
				}, experiments.RenderCI, nil)})
		}
		total, done := 0, 0
		for _, s := range entries {
			if s.Title != "" {
				total++
			}
		}

		fmt.Printf("DAMQ reproduction report (scale=%s, seed=%d)\n", *scaleName, sc.Seed)
		rule := strings.Repeat("=", 78)
		rep := &experiments.Report{Scale: sc}
		for _, s := range entries {
			if s.Title == "" {
				fmt.Println()
			} else {
				done++
				fmt.Printf("\n%s\n%s\n%s\n", rule, s.Title, rule)
			}
			text, err := s.Run(sc, rep)
			fmt.Print(text)
			if err != nil {
				return cli.Interrupted(err, "interrupted at %d/%d sections; the report above covers the completed ones", done, total)
			}
		}
		if *jsonPath == "" {
			return nil
		}
		if err := cli.WriteFile(*jsonPath, rep.JSON); err != nil {
			return err
		}
		fmt.Printf("\nJSON report written to %s\n", *jsonPath)
		return nil
	})
}

// metricsSection runs one over-subscribed blocking DAMQ network with no
// warmup and writes its observer snapshot to path. The ramp from empty
// network to saturation sweeps through every operating point Figure 3
// samples one load at a time, so the section recovers the curve from
// the snapshot's time series.
func metricsSection(path string) experiments.Section {
	return experiments.Section{
		Title: "Companion — Figure 3 from one instrumented run (observer time series)",
		Run: func(sc experiments.Scale, _ *experiments.Report) (string, error) {
			_, snap, err := experiments.InstrumentedRun(netsim.Config{
				BufferKind:    damq.DAMQ,
				Capacity:      4,
				Policy:        damq.SmartArbitration,
				Protocol:      damq.Blocking,
				Traffic:       netsim.TrafficSpec{Kind: netsim.Uniform, Load: 1.0},
				WarmupCycles:  1,
				MeasureCycles: sc.Warmup + sc.Measure,
				Seed:          sc.Seed,
			}, max(sc.Measure/100, 1))
			if err == nil {
				err = cli.WriteFile(path, snap.Encode)
			}
			if err != nil {
				return "", err
			}
			curve := experiments.CurveFromIntervals("DAMQ/4 (one run)", 64, snap.Series)
			return experiments.RenderFigure3([]damq.Figure3Series{curve}) +
				fmt.Sprintf("\nmetrics snapshot written to %s\n", path), nil
		},
	}
}
