package netsim

import (
	"math"
	"runtime"
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/sw"
)

// TestNewAllocs pins what building the 1024×1024 Omega network costs —
// the set-up work every omegasim run and every benchmark process pays
// before its first cycle. A per-port buffer is one block (view, group and
// slot pool) plus its register file and owner table, and a switch's
// snapshot is two arrays (the masks, the tables); an object or byte
// count above the pins means construction grew a per-port or
// per-switch allocation again. The pins are go1.24 figures; before this
// layout New allocated 65,901 objects and 4.67 MB, before blocking
// flow control became published room (one register array per stage in
// place of a probe closure per switch) 27,501 objects and 4.12 MB,
// while each switch kept a second slice of its buffers as interface
// values 26,394 objects and 4.05 MB, and while each switch bound its
// head-blocked test as the arbiter's callback and the arbiter kept
// per-output scratch 25,114 objects and 3.95 MB, while each shard
// recorded its grants in a pending list for a separate move phase
// 23,738 objects and 3.89 MB, and while each shard allocated an outbox
// for every shard, wired to it or not, 23,738 objects and 3.80 MB.
func TestNewAllocs(t *testing.T) {
	cfg := Config{
		Radix: 4, Inputs: 1024, BufferKind: buffer.DAMQ, Capacity: 4,
		Policy: arbiter.Smart, Protocol: sw.Blocking,
		Traffic: TrafficSpec{Kind: Uniform, Load: 0.5}, Workers: 1,
	}
	// The counters are process-wide, so a goroutine an earlier test left
	// running can inflate one reading; the minimum of three is New's own.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	objects, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sim, err := New(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(sim)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	// Race-detector builds allocate the same objects but a few hundred
	// bytes more, so the byte pin allows 0.5%.
	const maxObjects, maxBytes = 23_611, 3_787_392 + 3_787_392/200
	if objects > maxObjects || bytes > maxBytes {
		t.Errorf("New(1024 inputs) allocates %d objects, %d bytes; pinned at most %d, %d",
			objects, bytes, maxObjects, maxBytes)
	}
}

// TestStepSteadyStateAllocs pins the simulator's allocation diet: once a
// run reaches steady state (scratch grown, free list populated, histogram
// and occupancy summaries allocated), stepping the network must be
// allocation-free up to rare amortized events — free-list growth when the
// in-flight high-water mark rises, or a ring buffer doubling. Regressions
// here (a closure recreated per cycle, a queue rebuilt per pop, arbiter
// scratch reallocated) show up as allocations proportional to switch or
// packet counts and fail the test loudly.
func TestStepSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name     string
		kind     buffer.Kind
		protocol sw.Protocol
		load     float64
	}{
		// No saturated blocking case: there the source backlog grows
		// without bound, so the live packet set — and with it genuine
		// allocation — must grow too. Sub-saturation runs reach a plateau
		// and must then be allocation-free.
		{"DAMQ blocking 0.5", buffer.DAMQ, sw.Blocking, 0.5},
		{"DAMQ discarding saturated", buffer.DAMQ, sw.Discarding, 1.0},
		{"FIFO discarding 0.5", buffer.FIFO, sw.Discarding, 0.5},
		{"SAFC blocking 0.5", buffer.SAFC, sw.Blocking, 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := New(Config{
				BufferKind: tc.kind,
				Capacity:   4,
				Policy:     arbiter.Smart,
				Protocol:   tc.protocol,
				Traffic:    TrafficSpec{Kind: Uniform, Load: tc.load},
				Seed:       7,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Reach steady state with measurement on, so all scratch —
			// outboxes, free lists — has grown to its high-water mark.
			for i := 0; i < 2000; i++ {
				sim.Step(true)
			}
			avg := testing.AllocsPerRun(500, func() {
				sim.Step(true)
			})
			const limit = 0.05
			if avg > limit {
				t.Errorf("steady-state Step allocates %.3f allocs/op, want <= %v", avg, limit)
			}
		})
	}
}
