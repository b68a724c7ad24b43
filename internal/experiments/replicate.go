package experiments

import (
	"fmt"
	"strings"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/stats"
	"damq/internal/sw"
)

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
// across reps seeds for every buffer kind: the error bars the original
// paper never printed. Every (kind, seed) point fans out through the
// pool, and values enter each summary in seed order, so the table is
// identical at any worker count.
func SaturationCI(reps int, sc Scale) ([]CIRow, error) {
	var specs []point
	for _, kind := range KindOrder {
		for _, offset := range Seeds(0, reps) {
			p := spec(kind, sw.Blocking, arbiter.Smart, 4, uniform(1.0))
			p.cfg.Seed = offset // netRun adds sc.Seed: the seeds are Seeds(sc.Seed, reps)
			specs = append(specs, p)
		}
	}
	results, err := runAll(specs, sc)
	if err != nil {
		return nil, err
	}
	rows := make([]CIRow, len(KindOrder))
	for ki, kind := range KindOrder {
		rows[ki].Kind = kind
		for _, r := range results[ki*reps : (ki+1)*reps] {
			rows[ki].Summary.Add(r.Throughput())
		}
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
