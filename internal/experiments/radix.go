package experiments

import (
	"fmt"
	"strings"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/netsim"
	"damq/internal/parallel"
	"damq/internal/sw"
)

// RadixRow compares FIFO and DAMQ saturation at one switch radix. The
// head-of-line ceiling worsens with radix (Karol: 0.75 at n=2, 0.655 at
// n=4, toward 0.586), while a multi-queue buffer keeps every output
// servable — so the DAMQ's advantage should grow with the radix. The
// 64-input network needs 6/3/2 stages at radix 2/4/8; the ratio column is
// the comparable quantity across rows.
type RadixRow struct {
	Radix   int
	Stages  int
	FIFOSat float64
	DAMQSat float64
	Ratio   float64
}

// RadixSweep measures saturation throughput for FIFO vs DAMQ Omega
// networks of 64 inputs at radix 2, 4 and 8, one slot per output port at
// every radix (capacity = radix) so per-port storage scales identically.
func RadixSweep(sc Scale) ([]RadixRow, error) {
	radixes := []int{2, 4, 8}
	kinds := []buffer.Kind{buffer.FIFO, buffer.DAMQ}
	// Radix is a netsim.Config field runSpec cannot express, so this sweep
	// fans out through parallel.MapCtx directly.
	type satResult struct {
		stages float64
		thr    float64
	}
	results, _, err := parallel.MapCtx(sc.ctx(), len(radixes)*len(kinds), sc.Workers, func(i int) (satResult, error) {
		sim, err := netsim.New(netsim.Config{
			Radix:         radixes[i/len(kinds)],
			Inputs:        64,
			BufferKind:    kinds[i%len(kinds)],
			Capacity:      radixes[i/len(kinds)],
			Policy:        arbiter.Smart,
			Protocol:      sw.Blocking,
			Traffic:       netsim.TrafficSpec{Kind: netsim.Uniform, Load: 1.0},
			WarmupCycles:  sc.Warmup,
			MeasureCycles: sc.Measure,
			Seed:          sc.Seed,
		})
		if err != nil {
			return satResult{}, err
		}
		res, err := sim.RunCtx(sc.ctx())
		if err != nil {
			return satResult{}, err
		}
		return satResult{stages: float64(sim.Topology().Stages()), thr: res.Throughput()}, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []RadixRow
	for ri, radix := range radixes {
		fifo, damq := results[ri*len(kinds)], results[ri*len(kinds)+1]
		rows = append(rows, RadixRow{
			Radix:   radix,
			Stages:  int(fifo.stages),
			FIFOSat: fifo.thr,
			DAMQSat: damq.thr,
			Ratio:   damq.thr / fifo.thr,
		})
	}
	return rows, nil
}

// RenderRadix formats the radix sweep.
func RenderRadix(rows []RadixRow) string {
	var b strings.Builder
	b.WriteString("Radix sweep: saturation throughput, 64-input Omega, capacity = radix slots\n")
	fmt.Fprintf(&b, "%-6s %-7s %10s %10s %10s\n", "radix", "stages", "FIFO sat", "DAMQ sat", "DAMQ/FIFO")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %-7d %10.3f %10.3f %10.2f\n",
			r.Radix, r.Stages, r.FIFOSat, r.DAMQSat, r.Ratio)
	}
	b.WriteString("Head-of-line blocking worsens with radix; per-destination queueing does\n")
	b.WriteString("not — the DAMQ's margin grows with switch size.\n")
	return b.String()
}
