package experiments

import (
	"fmt"
	"strings"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/parallel"
	"damq/internal/stats"
	"damq/internal/sw"
)

// Replicate runs a measurement across independent seeds and summarizes
// it. The recorded tables are single-seed (deterministic, regenerable);
// this utility quantifies how much the published cells would wobble under
// reseeding — the error bars the original paper never printed.
//
// Seeds run concurrently on up to workers goroutines (<=0 means
// GOMAXPROCS); measure must therefore be safe to call from multiple
// goroutines, which every netRun-style measurement is because each run
// builds its own simulator and the run memo is locked. Values enter the
// summary in seed order, so the result is identical at any worker count.
func Replicate(seeds []uint64, workers int, measure func(seed uint64) (float64, error)) (stats.Summary, error) {
	vals, err := parallel.Map(len(seeds), workers, func(i int) (float64, error) {
		return measure(seeds[i])
	})
	if err != nil {
		return stats.Summary{}, err
	}
	var sum stats.Summary
	for _, v := range vals {
		sum.Add(v)
	}
	return sum, nil
}

// Seeds generates n distinct seeds from a base.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)*1_000_003
	}
	return out
}

// CIRow is one buffer kind's replicated saturation measurement.
type CIRow struct {
	Kind    buffer.Kind
	Summary stats.Summary
}

// SaturationCI replicates the Table 4 saturation-throughput measurement
// across reps seeds for every buffer kind.
func SaturationCI(reps int, sc Scale) ([]CIRow, error) {
	var rows []CIRow
	for _, kind := range KindOrder {
		sum, err := Replicate(Seeds(sc.Seed, reps), sc.Workers, func(seed uint64) (float64, error) {
			s := sc
			s.Seed = seed
			r, err := netRun(kind, sw.Blocking, arbiter.Smart, 4, uniform(1.0), s)
			if err != nil {
				return 0, err
			}
			return r.Throughput(), nil
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, CIRow{Kind: kind, Summary: sum})
	}
	return rows, nil
}

// RenderCI formats the replicated measurement.
func RenderCI(rows []CIRow) string {
	var b strings.Builder
	b.WriteString("Saturation throughput, replicated across seeds (mean ± 95% CI)\n")
	fmt.Fprintf(&b, "%-6s %10s %12s %6s\n", "Buffer", "mean", "95% CI", "seeds")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %10.3f %12.4f %6d\n",
			r.Kind, r.Summary.Mean(), r.Summary.CI95(), r.Summary.N())
	}
	return b.String()
}
