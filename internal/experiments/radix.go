package experiments

import (
	"fmt"
	"strings"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/omega"
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
	var specs []point
	for _, radix := range radixes {
		for _, kind := range []buffer.Kind{buffer.FIFO, buffer.DAMQ} {
			p := spec(kind, sw.Blocking, arbiter.Smart, radix, uniform(1.0))
			p.cfg.Radix = radix
			specs = append(specs, p)
		}
	}
	results, err := runAll(specs, sc)
	if err != nil {
		return nil, err
	}
	var rows []RadixRow
	for ri, radix := range radixes {
		stages, err := omega.Stages(radix, 64)
		if err != nil {
			return nil, err
		}
		fifo, damq := results[2*ri].Throughput(), results[2*ri+1].Throughput()
		rows = append(rows, RadixRow{Radix: radix, Stages: stages, FIFOSat: fifo, DAMQSat: damq, Ratio: damq / fifo})
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
