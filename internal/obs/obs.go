// Package obs is the simulator's observability layer: a small registry
// of integer counters, gauges, and fixed-bucket histograms, plus an
// Observer that snapshots them to a stable JSON shape.
//
// The design contract, policed by cmd/damqvet's zeroalloc rule, is
// "zero cost when off, allocation-free when on":
//
//   - Instruments are plain int64 cells allocated once at registration
//     time. Inc/Add/Set/Observe never allocate, never format, and never
//     take locks, so they are safe inside // damqvet:hotpath bodies.
//   - Simulation code holds *Counter/*Gauge/*Histogram (or a struct of
//     them whose type name contains "Metrics") and guards every probe
//     with `if m != nil { ... }`. With no observer attached the pointer
//     is nil and the probe is a predicted-not-taken branch; results are
//     bit-identical because instruments consume no RNG.
//   - Registration (Registry.Counter and friends) is cold: it may
//     allocate and is meant for constructors, never for per-cycle code.
//
// Snapshots marshal counters/gauges/histograms as name-keyed JSON
// objects; encoding/json sorts map keys, so a snapshot of a
// deterministic run is byte-stable and can be golden-tested.
package obs

import (
	"fmt"
	"sort"
)

// Counter is a monotonically increasing integer instrument.
type Counter struct{ v int64 }

// Inc adds one.
//
// damqvet:hotpath
func (c *Counter) Inc() { c.v++ }

// Add adds d (d may be negative only for corrections; prefer Gauge for
// values that move both ways).
//
// damqvet:hotpath
func (c *Counter) Add(d int64) { c.v += d }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is an instantaneous integer level (occupancy, backlog).
type Gauge struct{ v int64 }

// Set overwrites the level.
//
// damqvet:hotpath
func (g *Gauge) Set(v int64) { g.v = v }

// Add moves the level by d.
//
// damqvet:hotpath
func (g *Gauge) Add(d int64) { g.v += d }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// Histogram is a fixed-width integer bucket histogram. Values land in
// bucket v/width; values past the last bucket are counted in Overflow
// so Total always equals the number of Observe calls. Buckets are
// allocated once at registration; Observe is allocation-free.
type Histogram struct {
	width    int64
	buckets  []int64
	overflow int64
	total    int64
	sum      int64
}

// Observe records one sample. Negative samples clamp to zero (they
// indicate a caller bug but must not corrupt bucket indexing).
//
// damqvet:hotpath
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.total++
	h.sum += v
	b := v / h.width
	if b >= int64(len(h.buckets)) {
		h.overflow++
		return
	}
	h.buckets[b]++
}

// ObserveN records n samples of value v: exactly what n Observe(v) calls
// would record, in one step. Shard-local tallies (value → count) fold
// into a registered histogram with it.
//
// damqvet:hotpath
func (h *Histogram) ObserveN(v, n int64) {
	if v < 0 {
		v = 0
	}
	h.total += n
	h.sum += v * n
	b := v / h.width
	if b >= int64(len(h.buckets)) {
		h.overflow += n
		return
	}
	h.buckets[b] += n
}

// Total returns the number of samples observed.
func (h *Histogram) Total() int64 { return h.total }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Width returns the bucket width.
func (h *Histogram) Width() int64 { return h.width }

// Registry is a get-or-create collection of named instruments. It is
// cold-path by design: constructors register instruments once and keep
// the returned pointers; per-cycle code touches only those pointers.
// A Registry is not safe for concurrent use — each simulation owns its
// own observer, mirroring the one-RNG-per-sim determinism rule.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket count and width on first use. Re-registering a
// name with a different shape is a programmer error and panics: two
// subsystems silently sharing mismatched buckets would corrupt both.
func (r *Registry) Histogram(name string, buckets int, width int64) *Histogram {
	if buckets <= 0 || width <= 0 {
		panic(fmt.Sprintf("obs: histogram %q needs positive buckets and width (got %d, %d)", name, buckets, width))
	}
	if h, ok := r.hists[name]; ok {
		if len(h.buckets) != buckets || h.width != width {
			panic(fmt.Sprintf("obs: histogram %q re-registered with shape %dx%d (have %dx%d)",
				name, buckets, width, len(h.buckets), h.width))
		}
		return h
	}
	h := &Histogram{width: width, buckets: make([]int64, buckets)}
	r.hists[name] = h
	return h
}

// Set overwrites the count, for checkpoint restore.
func (c *Counter) Set(v int64) { c.v = v }

// Buckets returns a copy of the bucket counts (excluding overflow).
func (h *Histogram) Buckets() []int64 { return append([]int64(nil), h.buckets...) }

// Overflow returns the overflow bucket count.
func (h *Histogram) Overflow() int64 { return h.overflow }

// Restore overwrites the histogram's contents with previously captured
// values, for checkpoint restore. The bucket count must match the
// registered shape, and the contents must pass CheckContents — a stream
// that disagrees is corrupt.
func (h *Histogram) Restore(buckets []int64, overflow, total, sum int64) error {
	if len(buckets) != len(h.buckets) {
		return fmt.Errorf("obs: %d restored buckets for a %d-bucket histogram", len(buckets), len(h.buckets))
	}
	if err := CheckContents(h.width, buckets, overflow, total, sum); err != nil {
		return err
	}
	copy(h.buckets, buckets)
	h.overflow, h.total, h.sum = overflow, total, sum
	return nil
}

// CheckContents reports whether Observe calls on a histogram of the
// given bucket width could have produced these contents: non-negative
// counts that add up (with overflow) to total, and a sum each sample's
// bucket can account for. Bucket b holds samples in [b*width,
// (b+1)*width), and overflow samples are at least len(buckets)*width,
// so the sum is bounded below always and above when overflow is 0.
func CheckContents(width int64, buckets []int64, overflow, total, sum int64) error {
	var n int64
	for _, c := range buckets {
		if c < 0 {
			return fmt.Errorf("obs: negative bucket count %d", c)
		}
		if n += c; n < 0 {
			return fmt.Errorf("obs: bucket counts overflow")
		}
	}
	if overflow < 0 || n+overflow != total {
		return fmt.Errorf("obs: histogram total %d does not match bucket sum %d", total, n+overflow)
	}
	// The bounds are summed in float64: exact for every reachable sum
	// (counts and values far below 2^53) and immune to int64 wrap on
	// hostile counts.
	var lo, hi float64
	for b, c := range buckets {
		lo += float64(c) * float64(int64(b)*width)
		hi += float64(c) * float64(int64(b+1)*width-1)
	}
	lo += float64(overflow) * float64(int64(len(buckets))*width)
	if float64(sum) < lo {
		return fmt.Errorf("obs: histogram sum %d below the %.0f its buckets hold", sum, lo)
	}
	if overflow == 0 && float64(sum) > hi {
		return fmt.Errorf("obs: histogram sum %d above the %.0f its buckets can hold", sum, hi)
	}
	return nil
}

// CounterNames returns the registered counter names, sorted — the
// deterministic iteration order the checkpoint codec serializes in.
func (r *Registry) CounterNames() []string { return sortedKeys(r.counters) }

// GaugeNames returns the registered gauge names, sorted.
func (r *Registry) GaugeNames() []string { return sortedKeys(r.gauges) }

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string { return sortedKeys(r.hists) }

// LookupHistogram returns the histogram registered under name without
// creating one: the restore path must never invent instruments (or
// shapes) the simulation did not register.
func (r *Registry) LookupHistogram(name string) (*Histogram, bool) {
	h, ok := r.hists[name]
	return h, ok
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
