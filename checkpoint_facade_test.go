package damq_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"damq"
)

func checkpointTestConfig() damq.NetworkConfig {
	return damq.NetworkConfig{
		Radix: 4, Inputs: 16, Capacity: 4,
		WarmupCycles: 30, MeasureCycles: 80, Seed: 11,
		BufferKind: damq.DAMQ,
		Traffic:    damq.TrafficSpec{Kind: damq.UniformTraffic, Load: 0.7},
	}
}

// TestCheckpointRestoreFacade interrupts a run mid-flight via the facade
// (cancel during RunCtxCheckpoint, which drains the cycle and saves a
// final checkpoint), restores at a different worker count, and requires
// the resumed result to match the uninterrupted twin exactly.
func TestCheckpointRestoreFacade(t *testing.T) {
	cfg := checkpointTestConfig()

	ref, err := damq.RunNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sim, err := damq.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	if _, err := sim.RunCtxCheckpoint(ctx, 25, func() error {
		cancel() // first save: interrupt the run; the final save lands below
		buf.Reset()
		return damq.Checkpoint(sim, &buf)
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	if buf.Len() == 0 {
		t.Fatal("no checkpoint captured")
	}

	resumed, err := damq.Restore(bytes.NewReader(buf.Bytes()), damq.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if got := resumed.Run(); !reflect.DeepEqual(*got, *ref) {
		t.Errorf("resumed result diverged from uninterrupted run:\n got %+v\nwant %+v", *got, *ref)
	}
}

// TestRestoreRejectsForeignOptions pins the option contract: only
// WithWorkers and WithObserver make sense against a checkpoint.
func TestRestoreRejectsForeignOptions(t *testing.T) {
	sim, err := damq.NewNetwork(checkpointTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := damq.Checkpoint(sim, &buf); err != nil {
		t.Fatal(err)
	}
	sim.Close()

	for name, opt := range map[string]damq.Option{
		"seed":   damq.WithSeed(9),
		"faults": damq.WithFaults(damq.FaultConfig{LinkTransientRate: 0.1}),
		"scale":  damq.WithScale(damq.QuickScale),
	} {
		if _, err := damq.Restore(bytes.NewReader(buf.Bytes()), opt); !errors.Is(err, damq.ErrBadCheckpoint) {
			t.Errorf("Restore with %s option: got %v, want ErrBadCheckpoint", name, err)
		}
	}
}

// TestRestoreCorruptTyped checks the facade surfaces the typed sentinels.
func TestRestoreCorruptTyped(t *testing.T) {
	if _, err := damq.Restore(bytes.NewReader([]byte("not a checkpoint"))); !errors.Is(err, damq.ErrBadCheckpoint) {
		t.Errorf("garbage stream: got %v, want ErrBadCheckpoint", err)
	}
}
