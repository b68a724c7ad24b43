package experiments

import (
	"fmt"
	"strings"

	"damq/internal/buffer"
	"damq/internal/eventsim"
	"damq/internal/netsim"
	"damq/internal/parallel"
)

// AsyncRow is one buffer kind's behaviour in the asynchronous
// event-driven network (experiment E9: the paper's closing conjecture).
type AsyncRow struct {
	Kind buffer.Kind
	// Fixed-length (8-byte) packets.
	FixedLat50  float64 // mean latency at 0.5 load, cycles
	FixedSatUtl float64 // link utilization at offered 1.0
	// Variable-length (1-32 byte) packets, same storage.
	VarLat50  float64
	VarSatUtl float64
}

// asyncScale converts the long-clock Scale to event-sim cycle spans (one
// long clock = netsim.ClocksPerCycle link cycles).
func asyncScale(sc Scale) (warmup, measure int64) {
	return sc.Warmup * netsim.ClocksPerCycle, sc.Measure * netsim.ClocksPerCycle
}

// Async runs the asynchronous network experiment: FIFO vs DAMQ, fixed vs
// variable packet lengths, 8 slots per buffer, blocking flow control with
// per-hop virtual cut-through (4-cycle turn-around, Table 1's figure).
func Async(sc Scale) ([]AsyncRow, error) {
	warm, meas := asyncScale(sc)
	return asyncRows(sc, func(load float64, minB, maxB int) (int64, int64) {
		return warm, meas
	})
}

// AsyncPackets runs E9 with each point's measurement span sized to
// deliver roughly the given number of packets, instead of sc's fixed
// cycle count: packet birth rate is inputs·load/E[duration] per cycle
// (64 inputs, eventsim.Overhead framing cycles, uniform payload sizes),
// so the window is packets·E[duration]/(inputs·load) cycles. This
// decouples statistical weight from wall-clock across loads and length
// distributions — the `omegasim -exp async -packets N` knob. packets <= 0
// falls back to Async's spans.
func AsyncPackets(sc Scale, packets int64) ([]AsyncRow, error) {
	if packets <= 0 {
		return Async(sc)
	}
	warm, _ := asyncScale(sc)
	return asyncRows(sc, func(load float64, minB, maxB int) (int64, int64) {
		meanDur := eventsim.Overhead + float64(minB+maxB)/2
		meas := int64(float64(packets)*meanDur/(64*load)) + 1
		return warm, meas
	})
}

// asyncRows runs the E9 spec grid, asking spans for each point's warmup
// and measurement windows. Cancelling sc.Ctx stops the grid between
// points; an event-driven run, once started, runs to its end.
func asyncRows(sc Scale, spans func(load float64, minB, maxB int) (int64, int64)) ([]AsyncRow, error) {
	kinds := []buffer.Kind{buffer.FIFO, buffer.DAMQ}
	type asyncSpec struct {
		kind       buffer.Kind
		load       float64
		minB, maxB int
	}
	var specs []asyncSpec
	for _, kind := range kinds {
		specs = append(specs,
			asyncSpec{kind, 0.5, 8, 8},
			asyncSpec{kind, 1.0, 8, 8},
			asyncSpec{kind, 0.5, 1, 32},
			asyncSpec{kind, 1.0, 1, 32},
		)
	}
	results, _, err := parallel.MapCtx(sc.ctx(), len(specs), sc.Workers, func(i int) (*eventsim.Result, error) {
		s := specs[i]
		warm, meas := spans(s.load, s.minB, s.maxB)
		sim, err := eventsim.New(eventsim.Config{
			BufferKind: s.kind,
			Capacity:   8,
			MinBytes:   s.minB,
			MaxBytes:   s.maxB,
			Load:       s.load,
			Warmup:     warm,
			Measure:    meas,
			Seed:       sc.Seed,
		})
		if err != nil {
			return nil, err
		}
		return sim.Run(), nil
	})
	if err != nil {
		return nil, err
	}
	var rows []AsyncRow
	for i, kind := range kinds {
		r := results[4*i : 4*i+4]
		rows = append(rows, AsyncRow{
			Kind:        kind,
			FixedLat50:  r[0].Latency.Mean(),
			FixedSatUtl: r[1].LinkUtilization,
			VarLat50:    r[2].Latency.Mean(),
			VarSatUtl:   r[3].LinkUtilization,
		})
	}
	return rows, nil
}

// RenderAsync formats the asynchronous experiment.
func RenderAsync(rows []AsyncRow) string {
	var b strings.Builder
	b.WriteString("Extension E9: asynchronous event-driven network (virtual cut-through,\n")
	b.WriteString("4-cycle turn-around/hop, 8 slots/buffer, blocking). Latency in link cycles.\n")
	fmt.Fprintf(&b, "%-6s %13s %13s %13s %13s\n",
		"Buffer", "fix lat@.5", "fix sat utl", "var lat@.5", "var sat utl")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %13.1f %13.3f %13.1f %13.3f\n",
			r.Kind, r.FixedLat50, r.FixedSatUtl, r.VarLat50, r.VarSatUtl)
	}
	return b.String()
}
