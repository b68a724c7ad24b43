package experiments

import (
	"fmt"
	"strings"
	"time"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/markov"
	"damq/internal/markov2x2"
	"damq/internal/netsim"
	"damq/internal/sw"
)

// This file holds the ablation studies DESIGN.md §7 calls out: design
// choices the paper discusses qualitatively, quantified on our models.

// ---------------------------------------------------------------------------
// Connectivity ablation: what does full connectivity buy on top of
// dynamic allocation? DAFC = DAMQ pool + SAFC read bandwidth.

// ConnectivityRow compares one buffer organization along both evaluation
// axes.
type ConnectivityRow struct {
	Kind     buffer.Kind
	PDiscard float64 // 2x2 Markov, 4 slots, 90% load
	SatThr   float64 // 64x64 network saturation throughput, 4 slots
	Lat50    float64 // network latency at 0.5 offered load
}

// AblationConnectivity evaluates SAMQ, SAFC, DAMQ and DAFC with equal
// storage. The interesting comparisons: SAFC-SAMQ (connectivity under
// static allocation) vs DAFC-DAMQ (connectivity under dynamic
// allocation). The paper's claim is that the second gap is small — the
// single read port is not the bottleneck once allocation is dynamic.
func AblationConnectivity(sc Scale) ([]ConnectivityRow, error) {
	kinds := []buffer.Kind{buffer.SAMQ, buffer.SAFC, buffer.DAMQ, buffer.DAFC}
	var specs []point
	for _, kind := range kinds {
		specs = append(specs,
			spec(kind, sw.Blocking, arbiter.Smart, 4, uniform(1.0)),
			spec(kind, sw.Blocking, arbiter.Smart, 4, uniform(0.5)),
		)
	}
	results, err := runAll(specs, sc)
	if err != nil {
		return nil, err
	}
	var rows []ConnectivityRow
	for i, kind := range kinds {
		mr, err := markov2x2.Solve(kind, 4, 0.90)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ConnectivityRow{
			Kind:     kind,
			PDiscard: mr.PDiscard,
			SatThr:   results[2*i].Throughput(),
			Lat50:    results[2*i+1].LatencyFromBorn.Mean(),
		})
	}
	return rows, nil
}

// RenderConnectivity formats the connectivity ablation.
func RenderConnectivity(rows []ConnectivityRow) string {
	var b strings.Builder
	b.WriteString("Ablation: read connectivity x allocation policy (4 slots/buffer)\n")
	fmt.Fprintf(&b, "%-6s %14s %10s %10s\n", "Buffer", "P(discard)@90%", "sat thr", "lat@0.5")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %14.4f %10.3f %10.1f\n", r.Kind, r.PDiscard, r.SatThr, r.Lat50)
	}
	b.WriteString("SAFC-SAMQ gap = connectivity under static allocation;\n")
	b.WriteString("DAFC-DAMQ gap = connectivity under dynamic allocation (the paper: small;\n")
	b.WriteString("here it can even be slightly negative — the wider tie-set changes what\n")
	b.WriteString("longest-queue arbitration picks — confirming the read port is not the\n")
	b.WriteString("bottleneck once allocation is dynamic).\n")
	return b.String()
}

// ---------------------------------------------------------------------------
// Arbitration ablation: smart vs dumb round-robin at and below saturation.

// ArbitrationRow holds one (kind, policy) measurement pair.
type ArbitrationRow struct {
	Kind        buffer.Kind
	SmartSatThr float64
	DumbSatThr  float64
	SmartLat40  float64
	DumbLat40   float64
}

// AblationArbitration quantifies Table 3's "smart ≈ dumb" observation on
// the blocking network across all four paper designs.
func AblationArbitration(sc Scale) ([]ArbitrationRow, error) {
	var specs []point
	for _, kind := range KindOrder {
		specs = append(specs,
			spec(kind, sw.Blocking, arbiter.Smart, 4, uniform(1.0)),
			spec(kind, sw.Blocking, arbiter.Dumb, 4, uniform(1.0)),
			spec(kind, sw.Blocking, arbiter.Smart, 4, uniform(0.4)),
			spec(kind, sw.Blocking, arbiter.Dumb, 4, uniform(0.4)),
		)
	}
	results, err := runAll(specs, sc)
	if err != nil {
		return nil, err
	}
	var rows []ArbitrationRow
	for i, kind := range KindOrder {
		r := results[4*i : 4*i+4]
		rows = append(rows, ArbitrationRow{
			Kind:        kind,
			SmartSatThr: r[0].Throughput(),
			DumbSatThr:  r[1].Throughput(),
			SmartLat40:  r[2].LatencyFromBorn.Mean(),
			DumbLat40:   r[3].LatencyFromBorn.Mean(),
		})
	}
	return rows, nil
}

// RenderArbitration formats the arbitration ablation.
func RenderArbitration(rows []ArbitrationRow) string {
	var b strings.Builder
	b.WriteString("Ablation: smart vs dumb arbitration (blocking, uniform, 4 slots)\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %12s\n",
		"Buffer", "smart satthr", "dumb satthr", "smart lat@.4", "dumb lat@.4")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %12.3f %12.3f %12.1f %12.1f\n",
			r.Kind, r.SmartSatThr, r.DumbSatThr, r.SmartLat40, r.DumbLat40)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Burstiness ablation: multi-packet messages (the ComCoBB's workload
// shape) vs independent packets at equal offered load.

// BurstRow compares one buffer kind under uniform vs bursty traffic.
type BurstRow struct {
	Kind       buffer.Kind
	UniformLat float64 // latency at 0.4 load, independent packets
	BurstLat   float64 // latency at 0.4 load, mean-4-packet messages
	UniformSat float64 // saturation throughput, independent packets
	BurstSat   float64 // saturation throughput, bursty
}

// AblationBurstiness measures how message-structured traffic (bursts of
// packets to one destination) shifts the comparison. Bursts pile packets
// onto a single destination queue, so designs that segregate per
// destination keep other traffic moving, while a FIFO's head-of-line
// blocking worsens.
func AblationBurstiness(sc Scale) ([]BurstRow, error) {
	const meanBurst = 4
	burst := func(load float64) netsim.TrafficSpec {
		return netsim.TrafficSpec{Kind: netsim.Bursty, Load: load, MeanBurst: meanBurst}
	}
	var specs []point
	for _, kind := range KindOrder {
		specs = append(specs,
			spec(kind, sw.Blocking, arbiter.Smart, 4, uniform(0.4)),
			spec(kind, sw.Blocking, arbiter.Smart, 4, burst(0.4)),
			spec(kind, sw.Blocking, arbiter.Smart, 4, uniform(1.0)),
			spec(kind, sw.Blocking, arbiter.Smart, 4, burst(1.0)),
		)
	}
	results, err := runAll(specs, sc)
	if err != nil {
		return nil, err
	}
	var rows []BurstRow
	for i, kind := range KindOrder {
		r := results[4*i : 4*i+4]
		rows = append(rows, BurstRow{
			Kind:       kind,
			UniformLat: r[0].LatencyFromBorn.Mean(),
			BurstLat:   r[1].LatencyFromBorn.Mean(),
			UniformSat: r[2].Throughput(),
			BurstSat:   r[3].Throughput(),
		})
	}
	return rows, nil
}

// RenderBurstiness formats the burstiness ablation.
func RenderBurstiness(rows []BurstRow) string {
	var b strings.Builder
	b.WriteString("Ablation: independent packets vs mean-4-packet messages (blocking, 4 slots)\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %12s\n",
		"Buffer", "unif lat@.4", "burst lat@.4", "unif satthr", "burst satthr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %12.1f %12.1f %12.3f %12.3f\n",
			r.Kind, r.UniformLat, r.BurstLat, r.UniformSat, r.BurstSat)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Solver ablation: power iteration vs Gauss-Seidel, plus mixing times
// that justify the simulators' warm-up lengths.

// SolverRow is one chain's solver comparison.
type SolverRow struct {
	Name       string
	States     int
	PowerTime  time.Duration
	GSTime     time.Duration
	MaxDiff    float64 // max |pi_power - pi_gs|
	MixingTime int     // steps to 0.01 total variation from empty start
}

// AblationSolver solves representative Table 2 chains with both solvers
// and measures how many long-clock cycles each chain needs to mix — the
// analytic justification for the network simulator's warm-up period.
//
// clock supplies the wall-clock readings for the solver timing columns;
// the CLI passes time.Now. A nil clock yields zero durations, keeping
// the rendered table byte-identical across runs — tests and golden
// outputs use that.
func AblationSolver(clock func() time.Time) ([]SolverRow, error) {
	if clock == nil {
		clock = func() time.Time { return time.Time{} }
	}
	cases := []struct {
		name  string
		kind  buffer.Kind
		slots int
		load  float64
	}{
		{"DAMQ/4 @ 90%", buffer.DAMQ, 4, 0.90},
		{"FIFO/6 @ 90%", buffer.FIFO, 6, 0.90},
		{"SAFC/6 @ 75%", buffer.SAFC, 6, 0.75},
	}
	var rows []SolverRow
	for _, cse := range cases {
		model, err := markov2x2.New(cse.kind, cse.slots, cse.load)
		if err != nil {
			return nil, err
		}
		chain, err := markov.Build(model, 0)
		if err != nil {
			return nil, err
		}
		var row SolverRow
		row.Name = cse.name
		row.States = chain.NumStates()

		start := clock()
		power, err := chain.Steady()
		if err != nil {
			return nil, err
		}
		row.PowerTime = clock().Sub(start)

		start = clock()
		gs, err := chain.SteadyGaussSeidel()
		if err != nil {
			return nil, err
		}
		row.GSTime = clock().Sub(start)

		for i := range power {
			d := power[i] - gs[i]
			if d < 0 {
				d = -d
			}
			if d > row.MaxDiff {
				row.MaxDiff = d
			}
		}
		mix, err := chain.MixingTime(power, 0.01, 1_000_000)
		if err != nil {
			return nil, err
		}
		row.MixingTime = mix
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderSolver formats the solver ablation.
func RenderSolver(rows []SolverRow) string {
	var b strings.Builder
	b.WriteString("Ablation: steady-state solver comparison + chain mixing times\n")
	fmt.Fprintf(&b, "%-14s %8s %12s %12s %10s %10s\n",
		"chain", "states", "power", "gauss-seidel", "max diff", "mix steps")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d %12s %12s %10.2e %10d\n",
			r.Name, r.States, r.PowerTime.Round(time.Microsecond),
			r.GSTime.Round(time.Microsecond), r.MaxDiff, r.MixingTime)
	}
	b.WriteString("Mixing times are tens of cycles; the simulators warm up for >=500,\n")
	b.WriteString("so steady-state measurements are not biased by the empty start.\n")
	return b.String()
}
