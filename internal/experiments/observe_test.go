package experiments

import (
	"runtime"
	"testing"
	"time"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/netsim"
	"damq/internal/sw"
)

// TestInstrumentedRunReleasesWorkers: a config with Workers > 1 builds a
// worker gang, and InstrumentedRun must close it — the goroutine count
// returns to where it was before the run.
func TestInstrumentedRunReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	res, snap, err := InstrumentedRun(netsim.Config{
		BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Blocking,
		Traffic:      netsim.TrafficSpec{Kind: netsim.Uniform, Load: 0.5},
		WarmupCycles: 50, MeasureCycles: 200, Seed: 1, Workers: 2,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 || snap == nil {
		t.Fatalf("run delivered %d packets, snapshot %v", res.Delivered, snap)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after InstrumentedRun, %d before: the worker gang leaked",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
