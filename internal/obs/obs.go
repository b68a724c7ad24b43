// Package obs is the simulator's observability layer: a small registry
// of integer counters, gauges, and histograms (each a registered
// stats.Histogram), plus an Observer that snapshots them to a stable
// JSON shape.
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

	"damq/internal/stats"
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

// Histogram is a registered stats.Histogram. It is declared here, not
// aliased, so damqvet's zeroalloc rule recognises *Histogram as an obs
// sink whose probes need a nil guard; all of its behaviour is the
// embedded histogram's.
type Histogram struct{ stats.Histogram }

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
// with the given bucket count and width (both positive, or
// stats.NewHistogram panics) on first use. Re-registering a
// name with a different shape is a programmer error and panics: two
// subsystems silently sharing mismatched buckets would corrupt both.
func (r *Registry) Histogram(name string, buckets int, width int64) *Histogram {
	if h, ok := r.hists[name]; ok {
		if have := len(h.Buckets()); have != buckets || h.Width() != width {
			panic(fmt.Sprintf("obs: histogram %q re-registered with shape %dx%d (have %dx%d)",
				name, buckets, width, have, h.Width()))
		}
		return h
	}
	h := &Histogram{*stats.NewHistogram(buckets, width)}
	r.hists[name] = h
	return h
}

// RemoveCounter unregisters the counter named name, for an instrument
// whose source has gone away; a later Counter(name) starts a new one.
func (r *Registry) RemoveCounter(name string) { delete(r.counters, name) }

// Set overwrites the count.
func (c *Counter) Set(v int64) { c.v = v }

// sortedKeys returns m's keys in the order Observer.Walk serializes
// instruments in.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
