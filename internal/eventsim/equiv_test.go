package eventsim

// TestAsyncEngineMatchesLegacy is the golden equivalence gate for the
// typed calendar-queue rewrite: the new engine must not merely be
// statistically close to the seed engine, it must execute the *same
// simulation* — every packet delivered at the same cycle, in the same
// order, with the same aggregate curve points. Any divergence in event
// ordering, RNG call sequence, or cut-through bookkeeping shows up as a
// first-divergence failure here.

import (
	"fmt"
	"testing"

	"damq/internal/buffer"
	"damq/internal/packet"
)

// delivery is one sink-side observation: everything that identifies a
// packet plus the cycle its tail arrived. Compared by value, so it does
// not matter that the two engines hand different pointers to onDeliver.
type delivery struct {
	ID           uint64
	Source, Dest int
	Bytes        int
	Born, At     int64
}

func equivConfigs() []Config {
	base := Config{Capacity: 8, Warmup: 1_000, Measure: 5_000}
	var cfgs []Config
	// The E9 sweep's corners: both buffer kinds, fixed and variable
	// lengths, below and at saturation.
	for _, kind := range []buffer.Kind{buffer.FIFO, buffer.DAMQ} {
		for _, load := range []float64{0.5, 1.0} {
			for _, bytes := range [][2]int{{8, 8}, {1, 32}} {
				c := base
				c.BufferKind = kind
				c.Load = load
				c.MinBytes, c.MaxBytes = bytes[0], bytes[1]
				cfgs = append(cfgs, c)
			}
		}
	}
	// Hot-spot traffic and a narrow radix-2 network round out coverage.
	hot := base
	hot.BufferKind = buffer.DAMQ
	hot.Load = 0.6
	hot.HotFraction = 0.1
	cfgs = append(cfgs, hot)
	narrow := base
	narrow.BufferKind = buffer.DAMQ
	narrow.Radix = 2
	narrow.Inputs = 16
	narrow.Load = 0.8
	narrow.MinBytes, narrow.MaxBytes = 1, 32
	cfgs = append(cfgs, narrow)
	return cfgs
}

func describeCfg(c Config) string {
	name := fmt.Sprintf("%v_load%.1f_b%d-%d_seed%d",
		c.BufferKind, c.Load, c.MinBytes, c.MaxBytes, c.Seed)
	if c.HotFraction > 0 {
		name += "_hot"
	}
	if c.Radix != 0 {
		name += fmt.Sprintf("_r%d", c.Radix)
	}
	return name
}

func TestAsyncEngineMatchesLegacy(t *testing.T) {
	for _, cfg := range equivConfigs() {
		for _, seed := range []uint64{1, 2, 1988} {
			cfg.Seed = seed
			t.Run(describeCfg(cfg), func(t *testing.T) {
				legacy, err := newLegacySim(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var want []delivery
				legacy.onDeliver = func(p *packet.Packet, at int64) {
					want = append(want, delivery{p.ID, p.Source, p.Dest, p.Bytes, p.Born, at})
				}
				wantRes := legacy.Run()

				sim, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var got []delivery
				sim.onDeliver = func(p *packet.Packet, at int64) {
					got = append(got, delivery{p.ID, p.Source, p.Dest, p.Bytes, p.Born, at})
				}
				gotRes := sim.Run()

				if len(got) != len(want) {
					t.Fatalf("delivery count: typed engine %d, legacy %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("delivery %d diverges:\n  typed : %+v\n  legacy: %+v", i, got[i], want[i])
					}
				}
				if gotRes.Generated != wantRes.Generated || gotRes.Delivered != wantRes.Delivered {
					t.Fatalf("counters diverge: typed gen=%d del=%d, legacy gen=%d del=%d",
						gotRes.Generated, gotRes.Delivered, wantRes.Generated, wantRes.Delivered)
				}
				if gotRes.Latency != wantRes.Latency {
					t.Fatalf("latency summary diverges:\n  typed : %v\n  legacy: %v",
						&gotRes.Latency, &wantRes.Latency)
				}
				if gotRes.LinkUtilization != wantRes.LinkUtilization {
					t.Fatalf("utilization diverges: typed %v, legacy %v",
						gotRes.LinkUtilization, wantRes.LinkUtilization)
				}
			})
		}
	}
}
