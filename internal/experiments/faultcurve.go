package experiments

import (
	"fmt"
	"strings"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/fault"
	"damq/internal/sw"
)

// The fault-curve experiment extends the paper's discarding-network
// comparison (Table 3) with injected link faults: how does delivered
// throughput degrade, and how much traffic turns into explicit
// faulted-discards, as the per-link per-cycle fault rate climbs? The
// paper argues the DAMQ's value is robustness to contention; this curve
// measures robustness to hardware failure, the dimension the fault
// engine adds.

// FaultCurveRates is the default per-link fault-rate sweep (0 is the
// fault-free baseline anchoring each curve).
var FaultCurveRates = []float64{0, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2}

// FaultPoint is one (kind, rate) measurement.
type FaultPoint struct {
	Rate        float64 // per-link per-cycle transient fault rate
	Throughput  float64 // delivered packets/input/cycle
	FaultedPct  float64 // % of injected packets lost to faulted links
	DiscardPct  float64 // % of generated packets discarded by the protocol
	Quarantined int64   // buffer slots taken out of service during the run
}

// FaultCurveRow is one buffer kind's degradation curve.
type FaultCurveRow struct {
	Kind   buffer.Kind
	Points []FaultPoint
}

// FaultCurve sweeps link fault rates for each buffer kind on the
// discarding network (uniform load 0.5, 4 slots, smart arbitration) and
// reports the degradation curve. Slot faults ride along at a tenth of
// the link rate so the dynamically allocated kinds also exercise
// quarantine. nil kinds defaults to FIFO vs DAMQ, nil rates to
// FaultCurveRates. Every point is an independent simulation fanned out
// through the worker pool; the fault seed is derived per point from
// sc.Seed so the whole curve replays exactly.
func FaultCurve(kinds []buffer.Kind, rates []float64, sc Scale) ([]FaultCurveRow, error) {
	if kinds == nil {
		kinds = []buffer.Kind{buffer.FIFO, buffer.DAMQ}
	}
	if rates == nil {
		rates = FaultCurveRates
	}
	var specs []point
	for _, kind := range kinds {
		for _, rate := range rates {
			p := spec(kind, sw.Discarding, arbiter.Smart, 4, uniform(0.5))
			if rate > 0 {
				p.faults = fault.Config{
					Seed:              sc.Seed + uint64(len(specs)+1),
					LinkTransientRate: rate,
					SlotStuckRate:     rate / 10,
				}
			}
			specs = append(specs, p)
		}
	}
	results, err := runAll(specs, sc)
	if err != nil {
		return nil, err
	}
	out := make([]FaultCurveRow, 0, len(kinds))
	for ki, kind := range kinds {
		row := FaultCurveRow{Kind: kind}
		for ri, rate := range rates {
			r := results[ki*len(rates)+ri]
			row.Points = append(row.Points, FaultPoint{
				Rate:        rate,
				Throughput:  r.Throughput(),
				FaultedPct:  100 * r.FaultFraction(),
				DiscardPct:  100 * r.DiscardFraction(),
				Quarantined: r.QuarantinedSlots,
			})
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderFaultCurve formats the degradation curves.
func RenderFaultCurve(rows []FaultCurveRow) string {
	var b strings.Builder
	b.WriteString("Graceful degradation: discarding network, uniform 0.50 load, 4 slots/buffer,\n")
	b.WriteString("transient link faults at the given per-link per-cycle rate (slot faults at rate/10)\n")
	fmt.Fprintf(&b, "%-6s %10s %10s %10s %10s %12s\n",
		"Buffer", "fault rate", "thr", "faulted %", "discard %", "slots lost")
	for _, row := range rows {
		for _, p := range row.Points {
			fmt.Fprintf(&b, "%-6s %10.4g %10.3f %10.2f %10.2f %12d\n",
				row.Kind, p.Rate, p.Throughput, p.FaultedPct, p.DiscardPct, p.Quarantined)
		}
	}
	return b.String()
}
