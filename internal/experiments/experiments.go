// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4) from this repository's models: Table 2 from the
// exact Markov chains, Tables 3-6 and Figure 3 from the Omega-network
// simulator, Table 1 from the cycle-accurate chip model, plus the
// variable-length extension the paper's conclusion motivates. Each
// experiment returns a structured result with a Render method producing
// the text table. Sections lists them in report order with their
// renderers: omegasim -exp report prints that list as an EXPERIMENTS-style
// report, and omegasim -exp NAME runs one entry by name.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/comcobb"
	"damq/internal/fault"
	"damq/internal/markov2x2"
	"damq/internal/netsim"
	"damq/internal/parallel"
	"damq/internal/stats"
	"damq/internal/sw"
)

// Scale tunes how long the simulations run. Full reproduces the numbers
// in EXPERIMENTS.md; Quick is for benchmarks and smoke tests.
type Scale struct {
	Warmup  int64
	Measure int64
	Seed    uint64
	// Workers bounds how many simulation points run concurrently
	// (0 = GOMAXPROCS). Every point is independently seeded and results
	// are assembled in submission order, so the rendered tables are
	// byte-identical at any worker count. Excluded from JSON reports for
	// the same reason: the report must not depend on how it was computed.
	Workers int `json:"-"`
	// Ctx, when non-nil, cancels sweeps cooperatively: no new simulation
	// points start after cancellation, the point in flight stops at its
	// next stride boundary, and the sweep returns ctx.Err() alongside
	// whatever completed. The CLIs set it from SIGINT/SIGTERM so an
	// interrupted sweep flushes partial results instead of dying mid-write.
	// Excluded from JSON for the same reason as Workers.
	Ctx context.Context `json:"-"`
}

// ctx resolves the scale's context, defaulting to Background.
func (sc Scale) ctx() context.Context {
	if sc.Ctx == nil {
		return context.Background()
	}
	return sc.Ctx
}

// Full is the scale used for the recorded results.
var Full = Scale{Warmup: 3000, Measure: 20000, Seed: 1988}

// Quick is a cheap scale for benchmarks and CI smoke runs.
var Quick = Scale{Warmup: 500, Measure: 3000, Seed: 1988}

// ParseScale maps a -scale flag value, quick or full, to its Scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (want quick|full)", name)
}

// KindOrder is the presentation order used in the paper's tables.
var KindOrder = []buffer.Kind{buffer.FIFO, buffer.DAMQ, buffer.SAMQ, buffer.SAFC}

// ---------------------------------------------------------------------------
// Table 2: Markov analysis of 2x2 discarding switches.

// Table2Loads are the traffic levels of the paper's Table 2.
var Table2Loads = []float64{0.25, 0.50, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99}

// Table2Row is one (buffer kind, slots) row of discard probabilities.
type Table2Row struct {
	Kind     buffer.Kind
	Slots    int
	PDiscard []float64 // aligned with the loads used
	States   int       // chain size, for the record
}

// Table2Result is the whole table.
type Table2Result struct {
	Loads []float64
	Rows  []Table2Row
}

// Table2Specs returns the (kind, slots) combinations of the paper's
// Table 2: FIFO and DAMQ at 2-6 slots, SAMQ and SAFC at even sizes.
func Table2Specs() []struct {
	Kind  buffer.Kind
	Slots int
} {
	var specs []struct {
		Kind  buffer.Kind
		Slots int
	}
	add := func(k buffer.Kind, slots ...int) {
		for _, s := range slots {
			specs = append(specs, struct {
				Kind  buffer.Kind
				Slots int
			}{k, s})
		}
	}
	add(buffer.FIFO, 2, 3, 4, 5, 6)
	add(buffer.DAMQ, 2, 3, 4, 5, 6)
	add(buffer.SAMQ, 2, 4, 6)
	add(buffer.SAFC, 2, 4, 6)
	return specs
}

// Table2 solves every cell exactly, one row per worker at a time
// (workers <= 0 means GOMAXPROCS). The solver is deterministic, so the
// table is identical at any worker count.
func Table2(loads []float64, workers int) (*Table2Result, error) {
	res, _, err := Table2Ctx(context.Background(), loads, workers)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table2Ctx is Table2 with cooperative cancellation: on ctx cancellation
// it returns the rows that finished — in table order, with the
// unfinished ones dropped — together with the planned row count and
// ctx.Err(), so a CLI can render the completed prefix and report
// "interrupted at N/M rows". A solver error still discards everything.
func Table2Ctx(ctx context.Context, loads []float64, workers int) (*Table2Result, int, error) {
	if loads == nil {
		loads = Table2Loads
	}
	specs := Table2Specs()
	rows, _, err := parallel.MapCtx(ctx, len(specs), workers, func(i int) (Table2Row, error) {
		spec := specs[i]
		row := Table2Row{Kind: spec.Kind, Slots: spec.Slots}
		for _, load := range loads {
			r, err := markov2x2.Solve(spec.Kind, spec.Slots, load)
			if err != nil {
				return row, fmt.Errorf("table2 %v/%d@%v: %w", spec.Kind, spec.Slots, load, err)
			}
			row.PDiscard = append(row.PDiscard, r.PDiscard)
			row.States = r.States
		}
		return row, nil
	})
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return nil, len(specs), err
	}
	// MapCtx leaves zero values at indices whose solves did not finish;
	// a completed row always has per-load entries.
	done := rows[:0]
	for _, row := range rows {
		if row.PDiscard != nil {
			done = append(done, row)
		}
	}
	return &Table2Result{Loads: loads, Rows: done}, len(specs), err
}

// Render formats the table in the paper's layout.
func (t *Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: probability of discarding, 2x2 discarding switch (exact Markov analysis)\n")
	fmt.Fprintf(&b, "%-6s %-5s", "Switch", "Slots")
	for _, l := range t.Loads {
		fmt.Fprintf(&b, " %6.0f%%", l*100)
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-6s %-5d", row.Kind, row.Slots)
		for _, p := range row.PDiscard {
			if p > 0 && p < 0.0005 {
				fmt.Fprintf(&b, " %7s", "0+")
			} else {
				fmt.Fprintf(&b, " %7.3f", p)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Network experiment plumbing shared by every Omega-network experiment.

// point is one network simulation of a sweep: the simulator's Config
// and the faults armed on it. netRun sets the Config's run length from
// the Scale and adds the Scale's seed to its Seed, which is 0 in every
// sweep but the seed replicas of SaturationCI. No field of a point is a
// pointer, so its %#v text names it completely.
type point struct {
	cfg    netsim.Config
	faults fault.Config
}

// spec builds a fault-free point of the paper's network: a 64-input
// Omega network of 4x4 switches.
func spec(kind buffer.Kind, proto sw.Protocol, policy arbiter.Policy, capacity int, traffic netsim.TrafficSpec) point {
	return point{cfg: netsim.Config{
		Radix: 4, Inputs: 64, BufferKind: kind, Capacity: capacity,
		Policy: policy, Protocol: proto, Traffic: traffic,
	}}
}

// netRun runs point p at scale sc, or returns its Result from the run
// memo when the same point at the same scale completed before in this
// process (see memo.go).
func netRun(p point, sc Scale) (*netsim.Result, error) {
	runs.calls.Add(1)
	p.cfg.WarmupCycles, p.cfg.MeasureCycles = sc.Warmup, sc.Measure
	p.cfg.Seed += sc.Seed
	key := runKey{point: fmt.Sprintf("%#v", p), workers: sc.Workers, hasCtx: sc.Ctx != nil}
	return runs.do(sc.ctx(), key, func() (*netsim.Result, error) {
		runs.sims.Add(1)
		sim, err := netsim.New(p.cfg)
		if err != nil {
			return nil, err
		}
		if err := sim.SetFaults(p.faults); err != nil {
			return nil, err
		}
		if sc.Ctx != nil {
			return sim.RunCtx(sc.Ctx)
		}
		return sim.Run(), nil
	})
}

// runAll fans the given points out over sc.Workers goroutines and
// returns their results in point order. Every point builds its own
// simulator from its own seed, or reads the run memo's read-only Result
// of an earlier identical call, so points share no mutable state; ordered
// results keep every table byte-identical to the serial rendering.
func runAll(pts []point, sc Scale) ([]*netsim.Result, error) {
	results, _, err := runAllPartial(pts, sc)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runAllPartial is runAll without the all-or-nothing contract: on
// cancellation (sc.Ctx) it returns whatever points completed — nil
// entries mark the rest — together with the completed count, so sweeps
// can flush partial output with an "interrupted at done/total" footer.
func runAllPartial(pts []point, sc Scale) ([]*netsim.Result, int, error) {
	return parallel.MapCtx(sc.ctx(), len(pts), sc.Workers, func(i int) (*netsim.Result, error) {
		return netRun(pts[i], sc)
	})
}

// skipCell reports whether a sweep leaves p out because its buffer kind
// cannot divide p's capacity among its queues: the static designs need a
// multiple of the radix, FB a multiple of its class count.
func skipCell(p point) bool {
	return errors.Is(p.cfg.Validate(), cfgerr.ErrBadCapacity)
}

// uniform builds a uniform-traffic spec at the given load.
func uniform(load float64) netsim.TrafficSpec {
	return netsim.TrafficSpec{Kind: netsim.Uniform, Load: load}
}

// hotspot builds the paper's 5% hot-spot spec.
func hotspot(load float64) netsim.TrafficSpec {
	return netsim.TrafficSpec{Kind: netsim.HotSpot, Load: load, HotFraction: 0.05}
}

// ---------------------------------------------------------------------------
// Table 3: discarding switches, uniform traffic, four slots.

// Table3Cell is one buffer type's discard behaviour.
type Table3Cell struct {
	Kind buffer.Kind
	// PctDiscarded at offered loads 0.25 and 0.50 under smart and dumb
	// arbitration, plus the over-capacity (offered 1.0) point.
	Smart25, Smart50 float64
	OverPct, OverThr float64
	Dumb50           float64
}

// Table3Result is the whole table.
type Table3Result struct {
	Cells []Table3Cell
}

// Table3 runs the discarding-network experiment: four independent
// simulation points per buffer kind, all fanned out through the pool.
func Table3(sc Scale) (*Table3Result, error) {
	var specs []point
	for _, kind := range KindOrder {
		specs = append(specs,
			spec(kind, sw.Discarding, arbiter.Smart, 4, uniform(0.25)),
			spec(kind, sw.Discarding, arbiter.Smart, 4, uniform(0.50)),
			spec(kind, sw.Discarding, arbiter.Dumb, 4, uniform(0.50)),
			spec(kind, sw.Discarding, arbiter.Smart, 4, uniform(1.0)),
		)
	}
	results, err := runAll(specs, sc)
	if err != nil {
		return nil, err
	}
	res := &Table3Result{}
	for i, kind := range KindOrder {
		rs := results[4*i : 4*i+4]
		res.Cells = append(res.Cells, Table3Cell{
			Kind:    kind,
			Smart25: 100 * rs[0].DiscardFraction(),
			Smart50: 100 * rs[1].DiscardFraction(),
			Dumb50:  100 * rs[2].DiscardFraction(),
			OverPct: 100 * rs[3].DiscardFraction(),
			OverThr: rs[3].Throughput(),
		})
	}
	return res, nil
}

// Render formats Table 3.
func (t *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 3: discarding switches, % packets discarded, uniform traffic, 4 slots/buffer\n")
	fmt.Fprintf(&b, "%-6s %8s %8s %12s %10s %10s\n", "Buffer", "0.25", "0.50", "over-cap %", "over thr", "dumb 0.50")
	for _, c := range t.Cells {
		fmt.Fprintf(&b, "%-6s %8.2f %8.2f %12.2f %10.2f %10.2f\n",
			c.Kind, c.Smart25, c.Smart50, c.OverPct, c.OverThr, c.Dumb50)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 4 / Table 5: blocking networks, latency vs load and slot count.

// LatencyRow is one (kind, slots) row: latency at fixed loads plus the
// saturated regime.
type LatencyRow struct {
	Kind       buffer.Kind
	Slots      int
	Loads      []float64
	Latency    []float64 // LatencyFromBorn at each load
	SatLatency float64   // LatencyFromInjection at offered 1.0
	SatThr     float64   // delivered throughput at offered 1.0
}

// LatencyTable runs one row for each requested (kind, slots) pair. Every
// (row, load) cell plus each row's saturation point is an independent
// simulation, so the whole table fans out through the pool at once.
func LatencyTable(kinds []buffer.Kind, slotSizes []int, loads []float64, sc Scale) ([]LatencyRow, error) {
	var sats, specs []point // each row's saturation point; every point of the table
	for _, kind := range kinds {
		for _, slots := range slotSizes {
			sat := spec(kind, sw.Blocking, arbiter.Smart, slots, uniform(1.0))
			if skipCell(sat) {
				continue
			}
			sats = append(sats, sat)
			for _, load := range loads {
				specs = append(specs, spec(kind, sw.Blocking, arbiter.Smart, slots, uniform(load)))
			}
			specs = append(specs, sat)
		}
	}
	perRow := len(loads) + 1 // measured loads plus the saturation point
	results, err := runAll(specs, sc)
	if err != nil {
		return nil, err
	}
	var rows []LatencyRow
	for i, p := range sats {
		cells := results[perRow*i : perRow*(i+1)]
		row := LatencyRow{Kind: p.cfg.BufferKind, Slots: p.cfg.Capacity, Loads: loads}
		for _, r := range cells[:len(loads)] {
			row.Latency = append(row.Latency, r.LatencyFromBorn.Mean())
		}
		sat := cells[len(loads)]
		row.SatLatency = sat.LatencyFromInjection.Mean()
		row.SatThr = sat.Throughput()
		rows = append(rows, row)
	}
	return rows, nil
}

// Table4 is the paper's Table 4: all four kinds, 4 slots.
func Table4(sc Scale) ([]LatencyRow, error) {
	return LatencyTable(KindOrder, []int{4}, []float64{0.25, 0.30, 0.40, 0.50}, sc)
}

// Table5 is the paper's Table 5: FIFO and DAMQ at 3, 4, 8 slots.
func Table5(sc Scale) ([]LatencyRow, error) {
	return LatencyTable([]buffer.Kind{buffer.FIFO, buffer.DAMQ}, []int{3, 4, 8},
		[]float64{0.25, 0.50}, sc)
}

// RenderLatencyRows formats Table 4/5-style results.
func RenderLatencyRows(title string, rows []LatencyRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	if len(rows) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-6s %-5s", "Buffer", "Slots")
	for _, l := range rows[0].Loads {
		fmt.Fprintf(&b, " %8.2f", l)
	}
	fmt.Fprintf(&b, " %10s %8s\n", "saturated", "sat thr")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-6s %-5d", row.Kind, row.Slots)
		for _, l := range row.Latency {
			fmt.Fprintf(&b, " %8.2f", l)
		}
		fmt.Fprintf(&b, " %10.2f %8.2f\n", row.SatLatency, row.SatThr)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 6: hot-spot traffic.

// Table6Row is one buffer type under 5% hot-spot traffic.
type Table6Row struct {
	Kind       buffer.Kind
	Lat125     float64 // latency at 12.5% load
	Lat200     float64 // latency at 20% load
	SatLatency float64
	SatThr     float64
}

// Table6 runs the hot-spot experiment: three independent points per
// buffer kind, fanned out through the pool.
func Table6(sc Scale) ([]Table6Row, error) {
	var specs []point
	for _, kind := range KindOrder {
		specs = append(specs,
			spec(kind, sw.Blocking, arbiter.Smart, 4, hotspot(0.125)),
			spec(kind, sw.Blocking, arbiter.Smart, 4, hotspot(0.20)),
			spec(kind, sw.Blocking, arbiter.Smart, 4, hotspot(1.0)),
		)
	}
	results, err := runAll(specs, sc)
	if err != nil {
		return nil, err
	}
	var rows []Table6Row
	for i, kind := range KindOrder {
		rs := results[3*i : 3*i+3]
		rows = append(rows, Table6Row{
			Kind:       kind,
			Lat125:     rs[0].LatencyFromBorn.Mean(),
			Lat200:     rs[1].LatencyFromBorn.Mean(),
			SatLatency: rs[2].LatencyFromInjection.Mean(),
			SatThr:     rs[2].Throughput(),
		})
	}
	return rows, nil
}

// RenderTable6 formats the hot-spot table.
func RenderTable6(rows []Table6Row) string {
	var b strings.Builder
	b.WriteString("Table 6: average latency with 5% hot-spot traffic, 4 slots/buffer\n")
	fmt.Fprintf(&b, "%-6s %8s %8s %10s %8s\n", "Buffer", "12.5%", "20.0%", "saturated", "sat thr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %8.2f %8.2f %10.2f %8.2f\n", r.Kind, r.Lat125, r.Lat200, r.SatLatency, r.SatThr)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 3: latency vs throughput curves.

// Figure3Loads is the default offered-load sweep.
var Figure3Loads = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40,
	0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.90, 1.0}

// Figure3 sweeps offered load and returns one latency/throughput series
// per buffer kind (blocking protocol, uniform traffic). Every (kind,
// load) point fans out through the pool — for the default 18-load sweep
// over two kinds that is 36 concurrent simulations.
func Figure3(kinds []buffer.Kind, capacity int, loads []float64, sc Scale) ([]stats.Series, error) {
	if loads == nil {
		loads = Figure3Loads
	}
	var specs []point
	for _, kind := range kinds {
		for _, load := range loads {
			specs = append(specs, spec(kind, sw.Blocking, arbiter.Smart, capacity, uniform(load)))
		}
	}
	results, err := runAll(specs, sc)
	if err != nil {
		return nil, err
	}
	var out []stats.Series
	for ki, kind := range kinds {
		series := stats.Series{Name: fmt.Sprintf("%v/%d", kind, capacity)}
		for li, load := range loads {
			r := results[ki*len(loads)+li]
			series.Add(stats.Point{
				Offered:    load,
				Throughput: r.Throughput(),
				Latency:    r.LatencyFromBorn.Mean(),
			})
		}
		out = append(out, series)
	}
	return out, nil
}

// RenderFigure3 renders the series as a text table plus an ASCII plot of
// latency (y, capped) against throughput (x).
func RenderFigure3(series []stats.Series) string {
	var b strings.Builder
	b.WriteString("Figure 3: latency vs throughput, blocking protocol, uniform traffic\n")
	for _, s := range series {
		fmt.Fprintf(&b, "\n%s  (saturation throughput %.2f)\n", s.Name, s.SaturationThroughput())
		fmt.Fprintf(&b, "%10s %12s %12s\n", "offered", "throughput", "latency")
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%10.2f %12.3f %12.1f\n", p.Offered, p.Throughput, p.Latency)
		}
	}
	b.WriteString("\n" + AsciiPlot(series, 64, 20, 300))
	return b.String()
}

// AsciiPlot draws latency-vs-throughput curves with one mark per series
// (a, b, c, ...). Latencies above latCap are clipped to the top row —
// exactly how the paper's Figure 3 shows the near-vertical saturation
// wall.
func AsciiPlot(series []stats.Series, width, height int, latCap float64) string {
	if width < 8 || height < 4 {
		return ""
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	maxThr := 0.0
	for _, s := range series {
		for _, p := range s.Points {
			if p.Throughput > maxThr {
				maxThr = p.Throughput
			}
		}
	}
	if maxThr == 0 {
		maxThr = 1
	}
	minLat := latCap
	for _, s := range series {
		for _, p := range s.Points {
			if p.Latency < minLat {
				minLat = p.Latency
			}
		}
	}
	for si, s := range series {
		mark := byte('a' + si%26)
		for _, p := range s.Points {
			x := int(p.Throughput / maxThr * float64(width-1))
			lat := p.Latency
			if lat > latCap {
				lat = latCap
			}
			y := 0
			if latCap > minLat {
				y = int((lat - minLat) / (latCap - minLat) * float64(height-1))
			}
			row := height - 1 - y
			grid[row][x] = mark
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "latency (clipped at %.0f clocks) vs throughput (0..%.2f)\n", latCap, maxThr)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", width) + "\n")
	var legend []string
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c=%s", 'a'+si%26, s.Name))
	}
	sort.Strings(legend)
	b.WriteString("  " + strings.Join(legend, "  ") + "\n")
	return b.String()
}

// ---------------------------------------------------------------------------
// Variable-length extension (paper Section 5 outlook).

// VarLenRow compares a buffer kind under fixed vs variable packet sizes.
type VarLenRow struct {
	Kind       buffer.Kind
	FixedThr   float64 // saturation throughput, fixed 1-slot packets, cap 8
	VarThr     float64 // saturation throughput, 1-4 slot packets, cap 8
	FixedLat50 float64
	VarLat50   float64
}

// VarLen runs the extension: same storage (8 slots), fixed single-slot
// packets vs uniformly distributed 1-4 slot packets. Only the dynamic
// designs are compared: a statically partitioned buffer whose per-queue
// share (2 slots here) is smaller than the maximum packet (4 slots) can
// never accept that packet at all — under the blocking protocol its
// sources wedge permanently, which is itself a finding the paper's
// Section 2 anticipates ("packets may be rejected ... even though there
// are some empty buffers"), but makes a latency table meaningless.
func VarLen(sc Scale) ([]VarLenRow, error) {
	kinds := []buffer.Kind{buffer.FIFO, buffer.DAMQ}
	varOf := func(load float64) netsim.TrafficSpec {
		t := uniform(load)
		t.MinSlots, t.MaxSlots = 1, 4
		return t
	}
	var specs []point
	for _, kind := range kinds {
		specs = append(specs,
			spec(kind, sw.Blocking, arbiter.Smart, 8, uniform(1.0)),
			spec(kind, sw.Blocking, arbiter.Smart, 8, varOf(1.0)),
			spec(kind, sw.Blocking, arbiter.Smart, 8, uniform(0.5)),
			spec(kind, sw.Blocking, arbiter.Smart, 8, varOf(0.5)),
		)
	}
	results, err := runAll(specs, sc)
	if err != nil {
		return nil, err
	}
	var rows []VarLenRow
	for i, kind := range kinds {
		r := results[4*i : 4*i+4]
		rows = append(rows, VarLenRow{
			Kind:       kind,
			FixedThr:   r[0].Throughput(),
			VarThr:     r[1].Throughput(),
			FixedLat50: r[2].LatencyFromBorn.Mean(),
			VarLat50:   r[3].LatencyFromBorn.Mean(),
		})
	}
	return rows, nil
}

// RenderVarLen formats the extension's comparison.
func RenderVarLen(rows []VarLenRow) string {
	var b strings.Builder
	b.WriteString("Extension: fixed 1-slot vs variable 1-4 slot packets, 8 slots/buffer, blocking\n")
	fmt.Fprintf(&b, "%-6s %10s %10s %12s %12s\n", "Buffer", "fix satthr", "var satthr", "fix lat@.5", "var lat@.5")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %10.3f %10.3f %12.1f %12.1f\n", r.Kind, r.FixedThr, r.VarThr, r.FixedLat50, r.VarLat50)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 1: chip-level cut-through timing.

// Table1Result records the measured turn-around per packet length.
type Table1Result struct {
	Lengths    []int
	TurnAround []int64
	Trace      []string // rendered event schedule for the 8-byte packet
}

// Table1 runs the chip testbench and measures the cut-through
// turn-around for several packet lengths.
func Table1() (*Table1Result, error) {
	res := &Table1Result{}
	for _, n := range []int{1, 8, 16, 32} {
		run, err := RunChip(context.Background(), n, false, fault.Config{})
		if err != nil {
			return nil, err
		}
		ta, ok := run.TurnAround()
		if !ok {
			return nil, fmt.Errorf("table1: missing trace events for n=%d", n)
		}
		res.Lengths = append(res.Lengths, n)
		res.TurnAround = append(res.TurnAround, ta)
		if n == 8 {
			for _, e := range run.Chip.Trace().Events {
				res.Trace = append(res.Trace, e.String())
			}
		}
	}
	return res, nil
}

// ChipRun is one run of the chip testbench.
type ChipRun struct {
	Chip   *comcobb.Chip
	Driver *comcobb.Driver // the sender on input 0
}

// RunChip is the chip testbench of Table 1 and omegasim -exp chip. It
// builds a traced chip whose input 0 routes header 0x01 to output 1
// (new header 0x02) and has a driver send one nbytes packet over that
// circuit. busy first lets a 32-byte packet on input 2 (header 0x05)
// win output 1, so the packet is buffered, not cut through. faults arms
// wire corruption on the chip and the driver's retry policy. The run
// ticks until the driver has drained (at most 10,000 extra cycles),
// then 8 more to flush the chip. ctx stops it at a clock boundary; the
// run so far comes back with ctx.Err().
func RunChip(ctx context.Context, nbytes int, busy bool, faults fault.Config) (*ChipRun, error) {
	chip := comcobb.NewChip(comcobb.Config{Trace: &comcobb.Trace{}, Faults: faults})
	if err := errors.Join(chip.In(0).Router().Set(0x01, comcobb.Route{Out: 1, NewHeader: 0x02}),
		chip.In(2).Router().Set(0x05, comcobb.Route{Out: 1, NewHeader: 0x06})); err != nil {
		return nil, err
	}
	r := &ChipRun{Chip: chip, Driver: comcobb.NewDriver(chip.InLink(0))}
	if faults.RetryLimit > 0 {
		r.Driver.SetRetryPolicy(faults.RetryLimit, faults.RetryBackoff)
	}
	run := func(n int, tick func()) {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			tick()
		}
	}
	step := func() { r.Driver.Tick(); chip.Tick() }
	payload := make([]byte, nbytes)
	for i := range payload {
		payload[i] = byte(0xA0 + i)
	}
	if busy {
		competing := comcobb.NewDriver(chip.InLink(2))
		competing.Queue(0x05, make([]byte, 32), 0)
		both := func() { competing.Tick(); step() }
		run(6, both) // the competing packet wins output 1 first
		r.Driver.Queue(0x01, payload, 0)
		run(120, both)
	} else {
		r.Driver.Queue(0x01, payload, 0)
		run(nbytes+40, step)
	}
	for i := 0; i < 10_000 && r.Driver.Pending() > 0 && ctx.Err() == nil; i++ {
		run(1, step)
	}
	run(8, step)
	return r, ctx.Err()
}

// TurnAround returns the clock cycles from the start bit reaching input
// 0 to the start bit leaving output 1, and whether both were traced.
func (r *ChipRun) TurnAround() (int64, bool) {
	in, ok1 := r.Chip.Trace().Find("in[0]", "start bit detected; synchronizer armed")
	out, ok2 := r.Chip.Trace().Find("out[1]", "start bit transmitted")
	return out.Cycle - in.Cycle, ok1 && ok2
}

// Render formats the Table 1 reproduction.
func (t *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Table 1: virtual cut-through turn-around (cycle-accurate chip model)\n")
	fmt.Fprintf(&b, "%-12s %s\n", "data bytes", "turn-around (clock cycles)")
	for i, n := range t.Lengths {
		fmt.Fprintf(&b, "%-12d %d\n", n, t.TurnAround[i])
	}
	b.WriteString("\nEvent schedule for the 8-byte packet:\n")
	for _, line := range t.Trace {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}
