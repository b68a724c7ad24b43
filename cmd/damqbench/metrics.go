package main

import (
	"slices"

	"damq/internal/experiments"
)

// Workload names. They are part of the benchmark's interface: BENCHMARK.json
// lists them and later changes are judged per workload.
const (
	wPaper  = "paper-quick"
	wW1     = "omega1024-w1"
	wW2     = "omega1024-w2"
	wWatch  = "omega256-watched"
	wSwitch = "switch4-kinds"
	wAsync  = "async-varlen"
)

// metricDef declares one metric. The two lists below are the single
// source of truth for names, units and directions: BENCHMARK.json must
// match them, untraced runs emit exactly endToEnd, and traced runs emit
// exactly perLayer (TestBenchmarkJSONMatchesCode,
// TestSmokeEmitsDeclaredMetrics).
type metricDef struct {
	Name   string
	Unit   string
	Better string   // "lower" or "higher"
	Bound  float64  // end-to-end only: allowed worsening, as a share of the parent's median
	On     []string // per-layer only: the workloads that exercise the layer; nil means all
}

// Every workload emits every end-to-end metric, so they are the ones all
// six have: set-up time, the host time of the fixed simulated work, and
// resident memory.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

var (
	netWorkloads     = []string{wW1, wW2, wWatch}
	steppedWorkloads = []string{wW1, wW2, wWatch, wSwitch, wAsync}
	shardedWorkloads = []string{wW2, wWatch}
	paperOnly        = []string{wPaper}
	watchOnly        = []string{wWatch}
	switchOnly       = []string{wSwitch}
	asyncOnly        = []string{wAsync}
)

// perLayer is the traced run's metric list. A workload that does not
// exercise a layer reports 0 for it. Layer-specific quantities are
// shares, ratios, counts and rates rather than absolute times, so that a
// time metric never reads a constant 0; absolute per-call times follow
// from a share times trace.wall_s (or the cell's loop time) divided by
// the matching count.
var perLayer = func() []metricDef {
	layer := func(name, unit, better string, on []string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, On: on}
	}
	m := []metricDef{
		layer("trace.wall_s", "s", "lower", nil),
		layer("trace.clock_ns", "ns", "lower", nil),
		layer("trace.overhead_frac", "fraction", "lower", nil),
		layer("trace.explained_frac", "fraction", "higher", nil),
		layer("trace.spans", "count", "lower", nil),
		layer("runtime.alloc_mb", "MB", "lower", nil),
		layer("runtime.gc_count", "count", "lower", nil),
		layer("runtime.gc_cpu_frac", "fraction", "lower", nil),
		layer("parallel.core_util", "fraction", "higher", nil),

		layer("sim.cycles", "count", "higher", steppedWorkloads),
		layer("sim.packets", "count", "higher", steppedWorkloads),
		layer("sim.cycles_per_s", "1/s", "higher", steppedWorkloads),
		layer("sim.packets_per_s", "1/s", "higher", steppedWorkloads),
	}
	for _, s := range paperReport(experiments.Scale{}, nil) {
		m = append(m, layer("experiments."+s.name+"_frac", "fraction", "lower", paperOnly))
	}
	m = append(m,
		layer("netsim.step_frac", "fraction", "lower", netWorkloads),
		layer("netsim.steps", "count", "higher", netWorkloads),
		layer("netsim.step_p99_over_p50", "ratio", "lower", netWorkloads),
		layer("netsim.collect_per_step", "ratio", "lower", netWorkloads),
		layer("netsim.check_buffers_per_step", "ratio", "lower", netWorkloads),
		layer("netsim.inflight_mean", "count", "lower", netWorkloads),
		layer("netsim.delivered_per_cycle", "1/cycle", "higher", netWorkloads),

		layer("parallel.speedup", "ratio", "higher", shardedWorkloads),
		layer("parallel.efficiency", "ratio", "higher", shardedWorkloads),

		layer("obs.step_overhead", "ratio", "lower", watchOnly),
		layer("obs.snapshot_per_step", "ratio", "lower", watchOnly),
		layer("obs.snapshot_bytes", "bytes", "lower", watchOnly),

		layer("checkpoint.saves", "count", "higher", watchOnly),
		layer("checkpoint.save_frac", "fraction", "lower", watchOnly),
		layer("checkpoint.save_p99_over_p50", "ratio", "lower", watchOnly),
		layer("checkpoint.save_mb_per_s", "MB/s", "higher", watchOnly),
		layer("checkpoint.restore_mb_per_s", "MB/s", "higher", watchOnly),
		layer("checkpoint.bytes", "bytes", "lower", watchOnly),
		layer("checkpoint.bytes_per_packet", "bytes", "lower", watchOnly),
	)
	for _, c := range switchCellConfigs() {
		m = append(m,
			layer("sw.cycles_per_s."+c.name, "1/s", "higher", switchOnly),
			layer("arbiter.arbitrate_frac."+c.name, "fraction", "lower", switchOnly),
			layer("buffer.offer_frac."+c.name, "fraction", "lower", switchOnly),
			layer("buffer.pop_frac."+c.name, "fraction", "lower", switchOnly),
			layer("buffer.refuse_frac."+c.name, "fraction", "lower", switchOnly),
			layer("arbiter.grants_per_cycle."+c.name, "1/cycle", "higher", switchOnly),
		)
	}
	return append(m,
		layer("eventsim.new_over_run", "ratio", "lower", asyncOnly),
		layer("eventsim.delivered", "count", "higher", asyncOnly),
	)
}()

// lookupMetric finds a declared metric; traced reports which list it is in.
func lookupMetric(name string) (def metricDef, traced, ok bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, false, true
		}
	}
	for _, d := range perLayer {
		if d.Name == name {
			return d, true, true
		}
	}
	return metricDef{}, false, false
}

// measuredOn reports whether workload w exercises the layer behind d.
func (d metricDef) measuredOn(w string) bool {
	return d.On == nil || slices.Contains(d.On, w)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
