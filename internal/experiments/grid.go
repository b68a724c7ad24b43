package experiments

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/netsim"
	"damq/internal/sw"
)

// Grid describes a custom parameter sweep over the network simulator —
// the "run your own experiment" surface a downstream user of this
// repository needs when their question is not one of the paper's tables.
type Grid struct {
	Kinds      []buffer.Kind
	Loads      []float64
	Capacities []int
	Protocol   sw.Protocol
	Policy     arbiter.Policy
	Traffic    netsim.TrafficKind
	// HotFraction applies when Traffic == netsim.HotSpot; MeanBurst
	// when Traffic == netsim.Bursty.
	HotFraction float64
	MeanBurst   float64
}

// GridPoint is one completed cell of the sweep.
type GridPoint struct {
	Kind       buffer.Kind `json:"kind"`
	Capacity   int         `json:"capacity"`
	Load       float64     `json:"load"`
	Throughput float64     `json:"throughput"`
	Latency    float64     `json:"latency"`
	LatencyP99 float64     `json:"latency_p99"`
	Discarded  float64     `json:"discard_fraction"`
	Backlog    float64     `json:"source_backlog"`
}

// Run executes every (kind, capacity, load) combination, fanning the
// valid cells through the worker pool. A cell whose buffer kind cannot
// divide the capacity among its queues (a static buffer whose capacity
// is not a multiple of the radix, FB at an odd capacity) is skipped
// rather than failing the sweep; a non-positive capacity fails it.
//
// When sc.Ctx is cancelled mid-sweep, Run returns the completed points
// (in spec order, incomplete cells omitted) together with ctx's error,
// so callers can flush partial output instead of discarding the work.
func (g Grid) Run(sc Scale) ([]GridPoint, error) {
	for _, c := range g.Capacities {
		if c <= 0 {
			return nil, fmt.Errorf("grid sweep: capacity %d is not positive: %w", c, cfgerr.ErrBadCapacity)
		}
	}
	specs := g.specs()
	results, _, err := runAllPartial(specs, sc)
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return nil, fmt.Errorf("grid sweep: %w", err)
	}
	out := make([]GridPoint, 0, len(specs))
	for i, s := range specs {
		r := results[i]
		if r == nil {
			continue // cancelled before this cell completed
		}
		out = append(out, GridPoint{
			Kind:       s.cfg.BufferKind,
			Capacity:   s.cfg.Capacity,
			Load:       s.cfg.Traffic.Load,
			Throughput: r.Throughput(),
			Latency:    r.LatencyFromBorn.Mean(),
			LatencyP99: r.LatencyP(0.99),
			Discarded:  r.DiscardFraction(),
			Backlog:    r.SourceBacklog.Mean(),
		})
	}
	// err is nil or the cancellation cause; either way out holds every
	// completed point.
	return out, err
}

// specs enumerates the sweep's valid cells in output order.
func (g Grid) specs() []point {
	var specs []point
	for _, kind := range g.Kinds {
		for _, cap := range g.Capacities {
			cell := spec(kind, g.Protocol, g.Policy, cap, netsim.TrafficSpec{
				Kind:        g.Traffic,
				HotFraction: g.HotFraction,
				MeanBurst:   g.MeanBurst,
			})
			if skipCell(cell) {
				continue
			}
			for _, load := range g.Loads {
				p := cell
				p.cfg.Traffic.Load = load
				specs = append(specs, p)
			}
		}
	}
	return specs
}

// Points reports how many cells the sweep will run — the denominator of
// an "interrupted at N/M" report.
func (g Grid) Points() int { return len(g.specs()) }

// WriteCSV emits the sweep results with a header row.
func WriteCSV(w io.Writer, points []GridPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"kind", "capacity", "load", "throughput", "latency_mean", "latency_p99",
		"discard_fraction", "source_backlog",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for _, p := range points {
		rec := []string{
			p.Kind.String(),
			strconv.Itoa(p.Capacity),
			f(p.Load), f(p.Throughput), f(p.Latency), f(p.LatencyP99),
			f(p.Discarded), f(p.Backlog),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
