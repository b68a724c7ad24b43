package experiments

import (
	"fmt"
	"strings"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/sw"
)

// TreeSatRow shows where packets pile up under saturating hot-spot
// traffic: mean buffered packets per switch, per stage. The saturation
// tree is rooted at the single last-stage switch feeding the hot module
// (1 of 16 switches), grows to 4 of 16 in the middle stage, and reaches
// all 16 first-stage switches — so the per-switch average rises toward
// the sources. This is the mechanism ("tree saturation", Pfister &
// Norton) behind Table 6's universal ~0.24 ceiling.
type TreeSatRow struct {
	Kind      buffer.Kind
	PerStage  []float64 // mean packets per switch per stage, hot spot @ 1.0
	UniformS0 float64   // stage-0 reference under uniform traffic @ 0.24
}

// TreeSaturation measures the gradient for every buffer kind.
func TreeSaturation(sc Scale) ([]TreeSatRow, error) {
	var specs []point
	for _, kind := range KindOrder {
		specs = append(specs,
			spec(kind, sw.Blocking, arbiter.Smart, 4, hotspot(1.0)),
			spec(kind, sw.Blocking, arbiter.Smart, 4, uniform(0.24)),
		)
	}
	results, err := runAll(specs, sc)
	if err != nil {
		return nil, err
	}
	var rows []TreeSatRow
	for i, kind := range KindOrder {
		var row TreeSatRow
		row.Kind = kind
		for _, s := range results[2*i].StageOccupancy {
			row.PerStage = append(row.PerStage, s.Mean())
		}
		if u := results[2*i+1]; len(u.StageOccupancy) > 0 {
			row.UniformS0 = u.StageOccupancy[0].Mean()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTreeSat formats the gradient table.
func RenderTreeSat(rows []TreeSatRow) string {
	var b strings.Builder
	b.WriteString("Tree saturation: mean buffered packets/switch per stage,\n")
	b.WriteString("5% hot-spot traffic at offered 1.0 (uniform @0.24 stage-0 for reference)\n")
	fmt.Fprintf(&b, "%-6s", "Buffer")
	if len(rows) > 0 {
		for st := range rows[0].PerStage {
			fmt.Fprintf(&b, " %9s", fmt.Sprintf("stage %d", st))
		}
	}
	fmt.Fprintf(&b, " %12s\n", "uniform s0")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s", r.Kind)
		for _, v := range r.PerStage {
			fmt.Fprintf(&b, " %9.2f", v)
		}
		fmt.Fprintf(&b, " %12.2f\n", r.UniformS0)
	}
	b.WriteString("Occupancy rises toward the sources: the congestion tree (1, 4, then all\n")
	b.WriteString("16 switches per stage) backs up from the hot module to every sender.\n")
	return b.String()
}
