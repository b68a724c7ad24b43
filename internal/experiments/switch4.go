package experiments

import (
	"fmt"
	"strings"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/parallel"
	"damq/internal/rng"
	"damq/internal/sw"
)

// The paper's Section 4.1 limits exact Markov analysis to 2×2 switches
// ("For the four-by-four switches, the state space was too large for
// Markov modeling, so the evaluation was done using event-driven
// simulation"). Switch4x4 is that bridge: the same standalone discarding
// switch measured by Monte-Carlo at radix 4 — Table 2's shape, one size
// up, before any network effects.

// Switch4Row is one (kind, slots) row of simulated discard fractions.
type Switch4Row struct {
	Kind     buffer.Kind
	Slots    int
	PDiscard []float64 // aligned with Switch4Loads
}

// Switch4Loads are the traffic levels reported.
var Switch4Loads = []float64{0.50, 0.75, 0.90, 0.99}

// Switch4x4 simulates standalone 4×4 discarding switches. Every
// (kind, slots, load) cell runs on its own switch instance with its own
// rng stream, so the 32 cells fan out through the pool independently.
func Switch4x4(cycles int64, seed uint64, workers int) ([]Switch4Row, error) {
	specs := []struct {
		kind  buffer.Kind
		slots int
	}{
		{buffer.FIFO, 4}, {buffer.FIFO, 8},
		{buffer.DAMQ, 4}, {buffer.DAMQ, 8},
		{buffer.SAMQ, 4}, {buffer.SAMQ, 8},
		{buffer.SAFC, 4}, {buffer.SAFC, 8},
	}
	nl := len(Switch4Loads)
	cells, err := parallel.Map(len(specs)*nl, workers, func(i int) (float64, error) {
		spec := specs[i/nl]
		s, err := sw.New(sw.Config{
			Ports:      4,
			BufferKind: spec.kind,
			Capacity:   spec.slots,
			Policy:     arbiter.Smart,
		})
		if err != nil {
			return 0, err
		}
		res := s.RunDiscarding(Switch4Loads[i%nl], cycles, rng.New(seed))
		return res.DiscardFraction(), nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Switch4Row
	for si, spec := range specs {
		rows = append(rows, Switch4Row{
			Kind:     spec.kind,
			Slots:    spec.slots,
			PDiscard: cells[si*nl : si*nl+nl],
		})
	}
	return rows, nil
}

// RenderSwitch4 formats the 4×4 switch table.
func RenderSwitch4(rows []Switch4Row) string {
	var b strings.Builder
	b.WriteString("4x4 discarding switch, Monte-Carlo (Table 2's shape at the paper's real radix)\n")
	fmt.Fprintf(&b, "%-6s %-5s", "Switch", "Slots")
	for _, l := range Switch4Loads {
		fmt.Fprintf(&b, " %6.0f%%", l*100)
	}
	b.WriteByte('\n')
	for _, row := range rows {
		fmt.Fprintf(&b, "%-6s %-5d", row.Kind, row.Slots)
		for _, p := range row.PDiscard {
			fmt.Fprintf(&b, " %7.3f", p)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Tail latency: means hide what saturation does to the unlucky packets.

// TailRow reports latency percentiles for one buffer kind.
type TailRow struct {
	Kind buffer.Kind
	Load float64
	Mean float64
	P50  float64
	P95  float64
	P99  float64
}

// TailLatency measures the latency distribution at the given load
// (blocking, uniform, 4 slots).
func TailLatency(load float64, sc Scale) ([]TailRow, error) {
	var specs []point
	for _, kind := range KindOrder {
		specs = append(specs, spec(kind, sw.Blocking, arbiter.Smart, 4, uniform(load)))
	}
	results, err := runAll(specs, sc)
	if err != nil {
		return nil, err
	}
	var rows []TailRow
	for i, kind := range KindOrder {
		r := results[i]
		rows = append(rows, TailRow{
			Kind: kind,
			Load: load,
			Mean: r.LatencyFromBorn.Mean(),
			P50:  r.LatencyP(0.50),
			P95:  r.LatencyP(0.95),
			P99:  r.LatencyP(0.99),
		})
	}
	return rows, nil
}

// RenderTail formats the percentile table.
func RenderTail(rows []TailRow) string {
	var b strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&b, "Latency distribution at %.2f offered load (clocks; blocking, uniform, 4 slots)\n",
			rows[0].Load)
	}
	fmt.Fprintf(&b, "%-6s %8s %8s %8s %8s\n", "Buffer", "mean", "p50", "p95", "p99")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %8.1f %8.1f %8.1f %8.1f\n", r.Kind, r.Mean, r.P50, r.P95, r.P99)
	}
	return b.String()
}
