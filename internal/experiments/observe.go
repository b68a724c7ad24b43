package experiments

import (
	"damq/internal/netsim"
	"damq/internal/obs"
	"damq/internal/stats"
)

// InstrumentedRun runs one observed network simulation and snapshots its
// metrics. interval > 0 additionally records the cumulative time series
// every interval measured cycles, which CurveFromIntervals can difference
// into a Figure-3-style curve — one run instead of a whole load sweep.
// The returned Result is bit-identical to an unobserved run of cfg.
func InstrumentedRun(cfg netsim.Config, interval int64) (*netsim.Result, *obs.Snapshot, error) {
	sim, err := netsim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer sim.Close()
	o := obs.NewObserver()
	o.SetInterval(interval)
	sim.SetObserver(o)
	res := sim.Run()
	return res, o.Snapshot(), nil
}

// CurveFromIntervals differences adjacent cumulative time-series records
// into per-interval operating points: offered load and throughput as
// packets per input per cycle, latency as the interval's mean
// injection-to-delivery clocks. During the ramp toward saturation each
// interval sits at a different effective load, so a single
// over-subscribed run traces out the latency-vs-throughput shape of
// Figure 3. inputs is the network width the rates are normalized by.
func CurveFromIntervals(name string, inputs int, recs []obs.IntervalRecord) stats.Series {
	series := stats.Series{Name: name}
	if inputs <= 0 {
		return series
	}
	for i := 1; i < len(recs); i++ {
		prev, cur := recs[i-1], recs[i]
		cycles := cur.Cycle - prev.Cycle
		if cycles <= 0 {
			continue
		}
		norm := float64(cycles) * float64(inputs)
		p := stats.Point{
			Offered:    float64(cur.Generated-prev.Generated) / norm,
			Throughput: float64(cur.Delivered-prev.Delivered) / norm,
		}
		if dc := cur.LatencyCount - prev.LatencyCount; dc > 0 {
			p.Latency = float64(cur.LatencySum-prev.LatencySum) / float64(dc)
		}
		if dg := cur.Generated - prev.Generated; dg > 0 {
			p.Discarded = float64(cur.Discarded-prev.Discarded) / float64(dg)
		}
		series.Add(p)
	}
	return series
}
