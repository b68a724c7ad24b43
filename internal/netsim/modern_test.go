package netsim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/sw"
)

// modernShardCases cover every 2026 sharing configuration the sharded
// engine must replay byte-identically: each admission policy per-port
// under both protocols, and the pooled geometry (discarding only — the
// blocking combination is rejected by Validate, pinned below).
func modernShardCases() []struct {
	name string
	cfg  Config
} {
	mk := func(kind buffer.Kind, proto sw.Protocol, shared bool, sh buffer.Sharing) Config {
		return Config{
			BufferKind: kind, Capacity: 4, Policy: arbiter.Smart, Protocol: proto,
			Traffic:      TrafficSpec{Kind: Uniform, Load: 0.6},
			WarmupCycles: 200, MeasureCycles: 1200,
			SharedPool: shared, Sharing: sh,
		}
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"blocking DT", mk(buffer.DT, sw.Blocking, false, buffer.Sharing{})},
		{"discarding DT alpha0.5", mk(buffer.DT, sw.Discarding, false, buffer.Sharing{Alpha: 0.5})},
		{"blocking FB", mk(buffer.FB, sw.Blocking, false, buffer.Sharing{Classes: 2})},
		{"blocking BSHARE", mk(buffer.BSHARE, sw.Blocking, false, buffer.Sharing{DelayTarget: 8})},
		{"discarding DT pooled", mk(buffer.DT, sw.Discarding, true, buffer.Sharing{})},
		{"discarding BSHARE pooled", mk(buffer.BSHARE, sw.Discarding, true, buffer.Sharing{})},
		{"discarding DAMQ pooled", mk(buffer.DAMQ, sw.Discarding, true, buffer.Sharing{})},
	}
}

// TestShardedModernMatchesSerial extends the sharded-equals-serial pin
// to the admission-policy kinds and the shared-pool geometry: clocks,
// per-class state and pool-wide admission must all shard cleanly. As in
// TestShardedMatchesSerial, the reference is already the one-worker run.
func TestShardedModernMatchesSerial(t *testing.T) {
	for _, tc := range modernShardCases() {
		for _, seed := range []uint64{1, 2, 3, 4, 5} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Seed = seed
				ref, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := ref.Run()
				for _, workers := range []int{3, 8} {
					cfg.Workers = workers
					sim, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := sim.Run()
					sim.Close()
					if !reflect.DeepEqual(got, want) {
						t.Errorf("workers=%d diverges from serial:\n got: %+v\nwant: %+v",
							workers, got, want)
					}
				}
			})
		}
	}
}

// TestSharedPoolRequiresPooledDiscarding pins the two validation rules
// the shared-pool geometry adds: only slot-pool kinds can share, and the
// blocking protocol is incompatible (its arbitrate-phase probes assume
// port-independent admission; one pool spanning ports can approve n
// probes individually and overflow on their same-cycle sum).
func TestSharedPoolRequiresPooledDiscarding(t *testing.T) {
	cfg := baseCfg(buffer.FIFO, sw.Discarding, 0.5)
	cfg.SharedPool = true
	if _, err := New(cfg); !errors.Is(err, cfgerr.ErrBadSharing) {
		t.Fatalf("SharedPool+FIFO: err = %v, want ErrBadSharing", err)
	}
	cfg = baseCfg(buffer.DT, sw.Blocking, 0.5)
	cfg.SharedPool = true
	if _, err := New(cfg); !errors.Is(err, cfgerr.ErrBadSharing) {
		t.Fatalf("SharedPool+Blocking: err = %v, want ErrBadSharing", err)
	}
	cfg.Protocol = sw.Discarding
	if _, err := New(cfg); err != nil {
		t.Fatalf("SharedPool+DT+Discarding rejected: %v", err)
	}
}

// TestSharedPoolChaosSoakConservation runs the chaos soak over the
// shared-pool geometry: slot faults land in per-view windows of one
// switch-wide pool, and the conservation invariant plus every pool
// self-check must hold while slots quarantine out from under admission.
func TestSharedPoolChaosSoakConservation(t *testing.T) {
	const cycles = 8_000
	var totalQuarantined int64
	for _, kind := range []buffer.Kind{buffer.DAMQ, buffer.DT, buffer.BSHARE} {
		for _, seed := range []uint64{1, 2, 3} {
			t.Run(fmt.Sprintf("%v/seed%d", kind, seed), func(t *testing.T) {
				cfg := chaosConfig(kind, sw.Discarding, seed)
				cfg.SharedPool = true
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fc := chaosFaults
				fc.Seed = seed * 977
				if err := s.SetFaults(fc); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < cycles; i++ {
					s.Step(true)
					if i%500 == 499 {
						if err := s.CheckBuffers(); err != nil {
							t.Fatalf("cycle %d: %v", i, err)
						}
					}
				}
				if err := s.CheckBuffers(); err != nil {
					t.Fatalf("final: %v", err)
				}
				res := s.Collect()
				got := res.Delivered + res.DiscardedInNet + res.FaultedInNet + s.InFlight()
				if res.Injected != got {
					t.Fatalf("conservation broken: injected %d != delivered %d + discarded %d + faulted %d + inflight %d",
						res.Injected, res.Delivered, res.DiscardedInNet, res.FaultedInNet, s.InFlight())
				}
				totalQuarantined += s.QuarantinedSlots()
			})
		}
	}
	if totalQuarantined == 0 {
		t.Fatal("no slot was quarantined across the shared-pool soak")
	}
}
