package experiments

import (
	"strings"
	"time"

	"damq/internal/buffer"
	"damq/internal/stats"
)

// Section is one entry of the experiment registry. cmd/experiments
// prints Sections in order as the report; omegasim -exp runs any entry
// of Sections or Extras by name.
type Section struct {
	Name string
	// Title is the section's banner in the report; "" continues the
	// previous section after a blank line.
	Title string
	// Run computes the experiment, records what it has in rep, and
	// renders it. On error the text covers what completed, if anything.
	Run func(sc Scale, rep *Report) (string, error)
}

// Sections is the paper report, Table 1 through Ablation A4, in order.
// clock times the A4 solver rows; nil renders them as zero, so the text
// is deterministic. Every run takes its seed, workers and cancellation
// from sc.
func Sections(clock func() time.Time) []Section {
	return []Section{
		{"table1", "Experiment E1 — Table 1: virtual cut-through in 4 clock cycles",
			Entry(func(Scale) (*Table1Result, error) { return Table1() },
				(*Table1Result).Render, func(r *Report, v *Table1Result) { r.Table1 = v })},
		{"table2", "Experiment E2 — Table 2: Markov analysis, 2x2 discarding switches",
			Entry(func(sc Scale) (*Table2Result, error) {
				t, _, err := Table2Ctx(sc.ctx(), nil, sc.Workers)
				return t, err
			}, (*Table2Result).Render, func(r *Report, v *Table2Result) { r.Table2 = v })},
		{"switch4", "Companion — 4x4 discarding switch, Monte-Carlo (Table 2 at real radix)",
			Entry(func(sc Scale) ([]Switch4Row, error) { return Switch4x4(sc.Measure*20, sc.Seed, sc.Workers) }, RenderSwitch4, nil)},
		{"table3", "Experiment E3 — Table 3: discarding network, uniform traffic",
			Entry(Table3, (*Table3Result).Render, func(r *Report, v *Table3Result) { r.Table3 = v })},
		{"figure3", "Experiment E4 — Figure 3: latency vs throughput (FIFO vs DAMQ, 4 slots)",
			Entry(func(sc Scale) ([]stats.Series, error) {
				return Figure3([]buffer.Kind{buffer.FIFO, buffer.DAMQ}, 4, nil, sc)
			}, RenderFigure3, func(r *Report, v []stats.Series) { r.Curves = v })},
		{"table4", "Experiment E5 — Table 4: blocking network latencies, 4 slots",
			Entry(Table4, func(rows []LatencyRow) string {
				return RenderLatencyRows("Table 4: average latency (clocks) for given load, 4 slots/buffer, blocking, uniform", rows)
			}, func(r *Report, v []LatencyRow) { r.Table4 = v })},
		{"tail", "", Entry(func(sc Scale) ([]TailRow, error) { return TailLatency(0.45, sc) }, RenderTail, nil)},
		{"table5", "Experiment E6 — Table 5: varying slots per buffer (FIFO vs DAMQ)",
			Entry(Table5, func(rows []LatencyRow) string {
				return RenderLatencyRows("Table 5: average latency varying slots/buffer, blocking, uniform", rows)
			}, func(r *Report, v []LatencyRow) { r.Table5 = v })},
		{"table6", "Experiment E7 — Table 6: 5% hot-spot traffic",
			Entry(Table6, RenderTable6, func(r *Report, v []Table6Row) { r.Table6 = v })},
		{"treesat", "", Entry(TreeSaturation, RenderTreeSat, func(r *Report, v []TreeSatRow) { r.TreeSat = v })},
		{"varlen", "Experiment E8 — extension: variable-length packets",
			Entry(VarLen, RenderVarLen, func(r *Report, v []VarLenRow) { r.VarLen = v })},
		{"async", "Experiment E9 — extension: asynchronous arrivals (event-driven)",
			Entry(Async, RenderAsync, func(r *Report, v []AsyncRow) { r.Async = v })},
		{"hogging", "Companion — central-pool hogging (§2's rejected design)", Entry(Hogging, RenderHogging, nil)},
		{"faults", "Companion — graceful degradation under injected link faults",
			Entry(func(sc Scale) ([]FaultCurveRow, error) { return FaultCurve(nil, nil, sc) }, RenderFaultCurve, nil)},
		{"radix", "Companion — radix sweep: DAMQ/FIFO gap vs switch size", Entry(RadixSweep, RenderRadix, nil)},
		{"a1", "Ablation A1 — read connectivity x allocation (DAFC)",
			Entry(AblationConnectivity, RenderConnectivity, func(r *Report, v []ConnectivityRow) { r.Ablate.Connectivity = v })},
		{"a2", "Ablation A2 — smart vs dumb arbitration",
			Entry(AblationArbitration, RenderArbitration, func(r *Report, v []ArbitrationRow) { r.Ablate.Arbitration = v })},
		{"a3", "Ablation A3 — burstiness (multi-packet messages)",
			Entry(AblationBurstiness, RenderBurstiness, func(r *Report, v []BurstRow) { r.Ablate.Burstiness = v })},
		{"a4", "Ablation A4 — Markov solvers and mixing times",
			Entry(func(Scale) ([]SolverRow, error) { return AblationSolver(clock) }, RenderSolver, nil)},
	}
}

// Extras are the entries that run only by name, outside the report:
// modern compares the 1988 buffers with today's sharing policies, and
// ablation prints A1 through A4 one after another, a blank line apart.
func Extras(clock func() time.Time) []Section {
	report := Sections(clock)
	ablations := report[len(report)-4:]
	return []Section{
		{"modern", "", Entry(func(sc Scale) ([]stats.Series, error) { return Modern(nil, 4, nil, sc) },
			RenderModern, func(r *Report, v []stats.Series) { r.Curves = v })},
		{"ablation", "", func(sc Scale, rep *Report) (string, error) {
			texts := make([]string, 0, len(ablations))
			for _, s := range ablations {
				text, err := s.Run(sc, rep)
				if err != nil {
					return strings.Join(texts, "\n"), err
				}
				texts = append(texts, text)
			}
			return strings.Join(texts, "\n"), nil
		}},
	}
}

// Entry adapts an experiment and its renderer to a Section's Run. keep,
// when non-nil, stores the result in the report, the partial result of
// a cancelled run included.
func Entry[T any](run func(Scale) (T, error), render func(T) string, keep func(*Report, T)) func(Scale, *Report) (string, error) {
	return func(sc Scale, rep *Report) (string, error) {
		v, err := run(sc)
		if keep != nil {
			keep(rep, v)
		}
		if err != nil {
			return "", err
		}
		return render(v), nil
	}
}
