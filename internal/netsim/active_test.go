package netsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/sw"
)

// fullScanDigestsPath pins TestActiveSetMatchesFullScan's cases: the
// sha256 of each run's Result, final slot pools, in-flight count and
// source backlog. The digests were taken from a reference mode, since
// deleted, that arbitrated every switch every cycle, empty or not. No
// remaining code path can regenerate them, so -update leaves the file
// alone.
var fullScanDigestsPath = filepath.Join("testdata", "fullscan_digests.json")

// digestScanRun extends digestBlockingRun with the conservation counters
// a Result does not carry: packets in flight and packets waiting at the
// sources.
func digestScanRun(t *testing.T, s *Sim, res *Result) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "%s inflight %d backlog %d\n",
		digestBlockingRun(t, s, res), s.InFlight(), s.SourceBacklogLen())
	return hex.EncodeToString(h.Sum(nil))
}

// TestActiveSetMatchesFullScan is the equivalence property behind
// skipping empty switches: a run that arbitrates only the active set —
// the switches holding packets — and fast-forwards each idle arbiter when
// its switch refills must end exactly where the full-scan reference
// ended. Any divergence — a switch skipped while occupied, a wrong
// AdvanceIdle count, a stale occupancy counter — changes the Result
// (every counter, latency summary, histogram bucket and occupancy trace)
// or the final slot pools, and so the digest. Each case runs at 1 and 2
// workers.
func TestActiveSetMatchesFullScan(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"uniform low blocking DAMQ", Config{
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic: TrafficSpec{Kind: Uniform, Load: 0.15},
			Seed:    11, WarmupCycles: 300, MeasureCycles: 1200,
		}},
		{"uniform high blocking FIFO dumb", Config{
			BufferKind: buffer.FIFO, Capacity: 4, Policy: arbiter.Dumb, Protocol: sw.Blocking,
			Traffic: TrafficSpec{Kind: Uniform, Load: 0.7},
			Seed:    12, WarmupCycles: 300, MeasureCycles: 1200,
		}},
		{"uniform saturated discarding SAMQ", Config{
			BufferKind: buffer.SAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Discarding,
			Traffic: TrafficSpec{Kind: Uniform, Load: 1.0},
			Seed:    13, WarmupCycles: 300, MeasureCycles: 1200,
		}},
		{"hot-spot blocking DAMQ", Config{
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic: TrafficSpec{Kind: HotSpot, Load: 0.3, HotFraction: 0.05},
			Seed:    14, WarmupCycles: 300, MeasureCycles: 1200,
		}},
		{"hot-spot discarding SAFC", Config{
			BufferKind: buffer.SAFC, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Discarding,
			Traffic: TrafficSpec{Kind: HotSpot, Load: 0.5, HotFraction: 0.05},
			Seed:    15, WarmupCycles: 300, MeasureCycles: 1200,
		}},
		{"bursty blocking DAMQ varlen", Config{
			BufferKind: buffer.DAMQ, Capacity: 8, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic: TrafficSpec{Kind: Bursty, Load: 0.25, MeanBurst: 3, MinSlots: 1, MaxSlots: 2},
			Seed:    16, WarmupCycles: 300, MeasureCycles: 1200,
		}},
		{"small radix-2 network", Config{
			Radix: 2, Inputs: 16,
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic: TrafficSpec{Kind: Uniform, Load: 0.4},
			Seed:    17, WarmupCycles: 300, MeasureCycles: 1200,
		}},
	}
	digests := map[string]string{}
	raw, err := os.ReadFile(fullScanDigestsPath)
	if err == nil {
		err = json.Unmarshal(raw, &digests)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2} {
				cfg := tc.cfg
				cfg.Workers = workers
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if sum := digestScanRun(t, s, s.Run()); sum != digests[tc.name] {
					t.Errorf("workers=%d: run hashes to %s, the full-scan reference to %q",
						workers, sum, digests[tc.name])
				}
				s.Close()
			}
		})
	}
}

// TestArbitrationStamps checks the invariant that lets the route phase
// skip empty switches: after every Step, each switch holding a
// packet carries the stamp of the cycle just run (it was arbitrated, or
// a packet reached it and its arbiter was fast-forwarded), and every
// stamp lies in [-1, Cycle()-1]. A stamp the scan failed to write would
// make noteAccept replay rounds the switch had already run.
func TestArbitrationStamps(t *testing.T) {
	for _, workers := range []int{1, 3} {
		sim, err := New(Config{
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic: TrafficSpec{Kind: Uniform, Load: 0.3}, Seed: 3, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		for i := 0; i < 800; i++ {
			sim.Step(true)
			last := sim.Cycle() - 1
			for _, sh := range sim.shards {
				for st, stamps := range sh.lastArb {
					for j, v := range stamps {
						si := sh.lo + j
						if v < -1 || v > last {
							t.Fatalf("workers=%d cycle %d: stage %d switch %d stamped %d",
								workers, last, st, si, v)
						}
						if !sim.stages[st][si].Empty() && v != last {
							t.Fatalf("workers=%d cycle %d: stage %d switch %d holds packets but was last arbitrated at %d",
								workers, last, st, si, v)
						}
					}
				}
			}
		}
	}
}
