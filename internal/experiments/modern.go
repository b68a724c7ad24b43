package experiments

import (
	"fmt"
	"strings"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/stats"
	"damq/internal/sw"
)

// ---------------------------------------------------------------------------
// "1988 vs 2026": the paper's DAMQ against modern shared-buffer admission
// policies, on the same Omega network and load grid as Figure 3.
//
// The 1988 designs split storage across ports and admit whenever a slot is
// free (complete sharing inside one port). The decades since added
// admission control on top of sharing: dynamic thresholds (DT), per-class
// reservations with geometric spill (FB), and delay-driven shrinking
// (BSHARE) — plus the option of pooling one storage across all of a
// switch's inputs. This experiment reruns Figure 3 over that design space.

// ModernVariant names one sharing configuration of the 1988-vs-2026 sweep:
// a buffer kind, whether the switch's inputs pool their storage, and the
// policy knobs.
type ModernVariant struct {
	Name       string
	Kind       buffer.Kind
	SharedPool bool
	Sharing    buffer.Sharing
}

// ModernVariants is the default comparison set: DAMQ as the 1988 baseline,
// each 2026 policy with per-port storage at the same total capacity, and
// the two strongest policies again with one pool spanning the switch.
func ModernVariants() []ModernVariant {
	return []ModernVariant{
		{Name: "damq-1988", Kind: buffer.DAMQ},
		{Name: "dt", Kind: buffer.DT},
		{Name: "fb", Kind: buffer.FB},
		{Name: "bshare", Kind: buffer.BSHARE},
		{Name: "dt-pool", Kind: buffer.DT, SharedPool: true},
		{Name: "bshare-pool", Kind: buffer.BSHARE, SharedPool: true},
	}
}

// ModernLoads is the default offered-load sweep — Figure 3's grid.
var ModernLoads = Figure3Loads

// Modern sweeps offered load for every variant and returns one
// latency/throughput series per variant: Figure 3's grid and axes, but
// under the discarding protocol (shared-pool admission is not
// port-independent, which blocking's probe contract requires — see
// netsim.Config.Validate — and one protocol keeps the variants
// comparable), with smart arbitration and uniform traffic. nil variants
// and loads select the defaults. Every (variant, load) point is an
// independent, independently seeded simulation fanned out over
// sc.Workers; results are byte-identical at any worker count.
func Modern(variants []ModernVariant, capacity int, loads []float64, sc Scale) ([]stats.Series, error) {
	if variants == nil {
		variants = ModernVariants()
	}
	if loads == nil {
		loads = ModernLoads
	}
	var specs []point
	for _, v := range variants {
		for _, load := range loads {
			p := spec(v.Kind, sw.Discarding, arbiter.Smart, capacity, uniform(load))
			p.cfg.SharedPool, p.cfg.Sharing = v.SharedPool, v.Sharing
			if err := p.cfg.Validate(); err != nil {
				return nil, fmt.Errorf("%s: %w", v.Name, err)
			}
			specs = append(specs, p)
		}
	}
	results, err := runAll(specs, sc)
	if err != nil {
		return nil, err
	}
	var out []stats.Series
	for vi, v := range variants {
		series := stats.Series{Name: fmt.Sprintf("%s/%d", v.Name, capacity)}
		for li, load := range loads {
			r := results[vi*len(loads)+li]
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

// RenderModern formats the 1988-vs-2026 sweep: a summary table (saturation
// throughput plus latency at a light and a heavy load) and the full
// per-variant curves with the Figure-3 ASCII plot.
func RenderModern(series []stats.Series) string {
	var b strings.Builder
	b.WriteString("1988 vs 2026: sharing policies on the discarding Omega network, uniform traffic\n\n")
	fmt.Fprintf(&b, "%-16s %8s %12s %12s\n", "variant", "sat thr", "lat @ 0.25", "lat @ 0.50")
	for _, s := range series {
		fmt.Fprintf(&b, "%-16s %8.3f %12.1f %12.1f\n",
			s.Name, s.SaturationThroughput(), latencyAt(s, 0.25), latencyAt(s, 0.50))
	}
	for _, s := range series {
		fmt.Fprintf(&b, "\n%s\n", s.Name)
		fmt.Fprintf(&b, "%10s %12s %12s\n", "offered", "throughput", "latency")
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%10.2f %12.3f %12.1f\n", p.Offered, p.Throughput, p.Latency)
		}
	}
	b.WriteString("\n" + AsciiPlot(series, 64, 20, 300))
	return b.String()
}

// latencyAt picks the series' latency at the offered load closest to want.
func latencyAt(s stats.Series, want float64) float64 {
	best, dist := 0.0, -1.0
	for _, p := range s.Points {
		d := p.Offered - want
		if d < 0 {
			d = -d
		}
		if dist < 0 || d < dist {
			best, dist = p.Latency, d
		}
	}
	return best
}
