package netsim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"damq/internal/buffer"
	"damq/internal/checkpoint"
	"damq/internal/fault"
	"damq/internal/obs"
	"damq/internal/packet"
	"damq/internal/parallel"
	"damq/internal/sw"
)

// chaosConfig is the soak workload: small enough to run thousands of
// cycles per seed quickly, busy enough that every fault class fires.
func chaosConfig(kind buffer.Kind, proto sw.Protocol, seed uint64) Config {
	return Config{
		Inputs:     16,
		BufferKind: kind,
		Protocol:   proto,
		Traffic:    TrafficSpec{Kind: Uniform, Load: 0.7},
		Seed:       seed,
	}
}

var chaosFaults = fault.Config{
	Seed:              1,
	SlotStuckRate:     2e-5,
	LinkTransientRate: 2e-4,
	LinkDeadRate:      5e-6,
}

// TestChaosSoakConservation runs thousands of cycles under mixed
// slot/link faults, across seeds, buffer kinds and both protocols,
// asserting the conservation invariant
//
//	injected == delivered + discarded-in-net + faulted + in-flight
//
// and running every buffer's linked-list self-check periodically — under
// fault injection the pools must shrink gracefully, never corrupt. The
// static kinds FIFO and SAMQ get link faults only (slot faults apply to
// pooled kinds), over fewer seeds.
func TestChaosSoakConservation(t *testing.T) {
	const cycles = 10_000
	var totalFaulted, totalQuarantined int64
	for _, kind := range []buffer.Kind{buffer.DAMQ, buffer.DAFC, buffer.FIFO, buffer.SAMQ} {
		seeds := []uint64{1, 2, 3, 4, 5}
		if !buffer.KindSharesPool(kind) {
			seeds = seeds[:2]
		}
		for _, proto := range []sw.Protocol{sw.Discarding, sw.Blocking} {
			for _, seed := range seeds {
				name := fmt.Sprintf("%v/%v/seed%d", kind, proto, seed)
				t.Run(name, func(t *testing.T) {
					fc := chaosFaults
					fc.Seed = seed * 977
					s, err := New(chaosConfig(kind, proto, seed))
					if err != nil {
						t.Fatal(err)
					}
					if err := s.SetFaults(fc); err != nil {
						t.Fatal(err)
					}
					// No warmup: every cycle is measured, so the Result
					// counters see the whole history and conservation is
					// exact.
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
					if res.FaultedInNet != s.Faulted() {
						t.Fatalf("faulted mismatch: window %d, total %d (warmup was 0)", res.FaultedInNet, s.Faulted())
					}
					if res.QuarantinedSlots != s.QuarantinedSlots() {
						t.Fatalf("Result reports %d quarantined slots, the Sim %d", res.QuarantinedSlots, s.QuarantinedSlots())
					}
					if proto == sw.Blocking && res.DiscardedInNet != 0 {
						t.Fatalf("blocking protocol discarded %d in-net (only faults may drop)", res.DiscardedInNet)
					}
					totalFaulted += res.FaultedInNet
					totalQuarantined += s.QuarantinedSlots()
				})
			}
		}
	}
	// The soak is vacuous if no fault ever fired; the rates are chosen so
	// that across the runs both classes trigger.
	if totalFaulted == 0 {
		t.Fatal("no link fault fired across the whole soak")
	}
	if totalQuarantined == 0 {
		t.Fatal("no slot was quarantined across the whole soak")
	}
}

// TestCheckBuffersAuditsStaticKinds corrupts one queue register of a
// SAMQ and of a FIFO buffer's slot pool and requires CheckBuffers to
// report it: the linked-list audit covers every kind, not only the
// pooled ones.
func TestCheckBuffersAuditsStaticKinds(t *testing.T) {
	for _, kind := range []buffer.Kind{buffer.SAMQ, buffer.FIFO} {
		t.Run(kind.String(), func(t *testing.T) {
			s, err := New(chaosConfig(kind, sw.Blocking, 7))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				s.Step(true)
			}
			if err := s.CheckBuffers(); err != nil {
				t.Fatalf("healthy %v network: %v", kind, err)
			}
			// Encode the pool with its walk, set queue 0's packet counter
			// off by one, kept in range so the restore-time bounds checks
			// let it through, and walk the pool back.
			sp := s.stages[0][0].Buffer(0).Pool()
			noCheck := func(*packet.Packet) error { return nil }
			enc := checkpoint.NewEncoder()
			var buf bytes.Buffer
			if err := sp.Walk(enc, noCheck); err != nil {
				t.Fatal(err)
			}
			if err := enc.Emit(&buf); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			// The counter follows the 20-byte frame header, the next
			// pointers and the owner map (an 8-byte length, then 4 bytes
			// a slot), the free list's head, tail and count, and the
			// queues' head and tail arrays (an 8-byte length, then 4
			// bytes a queue), and the packet counters' own length.
			at := 20 + 2*(8+4*sp.Capacity()) + 4 + 4 + 8 + 2*(8+4*sp.NumQueues()) + 8
			n := int64(binary.LittleEndian.Uint64(raw[at:]))
			if n != int64(sp.QueueLen(0)) {
				t.Fatalf("stream holds %d at queue 0's packet counter, the pool %d", n, sp.QueueLen(0))
			}
			if n > 0 {
				n--
			} else {
				n++
			}
			binary.LittleEndian.PutUint64(raw[at:], uint64(n))
			patchCRC(raw)
			dec, err := checkpoint.NewDecoderBytes(raw)
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.Walk(dec, noCheck); err != nil {
				t.Fatal(err)
			}
			if err := dec.Done(); err != nil {
				t.Fatal(err)
			}
			err = s.CheckBuffers()
			if err == nil || !strings.Contains(err.Error(), "stage 0 switch 0 input 0") {
				t.Fatalf("CheckBuffers = %v, want the corrupt queue register at stage 0 switch 0 input 0", err)
			}
		})
	}
}

// TestFaultsOffDoesNotChangeResults pins the faults-off contract: a
// disabled fault config (zero value, or all rates zero) leaves the run
// byte-identical to one that never touched SetFaults, including the
// metrics snapshot — no fault.* keys may appear.
func TestFaultsOffDoesNotChangeResults(t *testing.T) {
	run := func(arm bool) ([]byte, *Result) {
		cfg := chaosConfig(buffer.DAMQ, sw.Discarding, 42)
		cfg.WarmupCycles = 200
		cfg.MeasureCycles = 2000
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if arm {
			if err := s.SetFaults(fault.Config{RetryLimit: 3}); err != nil {
				t.Fatal(err)
			}
		}
		o := obs.NewObserver()
		s.SetObserver(o)
		res := s.Run()
		raw, err := o.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		return raw, res
	}
	rawOff, resOff := run(false)
	rawZero, resZero := run(true)
	if !bytes.Equal(rawOff, rawZero) {
		t.Fatalf("faults-off snapshot differs from never-armed snapshot:\n%s\nvs\n%s", rawZero, rawOff)
	}
	jsonOff, err := json.Marshal(resOff)
	if err != nil {
		t.Fatal(err)
	}
	jsonZero, err := json.Marshal(resZero)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonOff, jsonZero) {
		t.Fatalf("faults-off results differ:\n%s\nvs\n%s", jsonZero, jsonOff)
	}
	if bytes.Contains(jsonOff, []byte("FaultedInNet")) {
		t.Fatal("fault-free Result JSON contains FaultedInNet (omitempty broken)")
	}
	if bytes.Contains(rawOff, []byte("fault.")) {
		t.Fatal("fault-free snapshot contains fault.* metrics")
	}
}

// TestDisarmedFaultsCheckpointRestores: faults armed and then disarmed
// at cycle 0 leave no fault.* counter in the observer, whichever of
// SetFaults and SetObserver came first, so the Sim's checkpoint restores
// and the restored snapshot equals the original's.
func TestDisarmedFaultsCheckpointRestores(t *testing.T) {
	for _, observeFirst := range []bool{true, false} {
		s, err := New(chaosConfig(buffer.DAMQ, sw.Blocking, 7))
		if err != nil {
			t.Fatal(err)
		}
		o := obs.NewObserver()
		if observeFirst {
			s.SetObserver(o)
		}
		if err := s.SetFaults(chaosFaults); err != nil {
			t.Fatal(err)
		}
		if !observeFirst {
			s.SetObserver(o)
		}
		if err := s.SetFaults(fault.Config{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			s.Step(true)
		}
		var ckpt bytes.Buffer
		if err := s.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		r, err := RestoreSim(&ckpt)
		if err != nil {
			t.Fatalf("observeFirst=%v: restore of a disarmed Sim's checkpoint: %v", observeFirst, err)
		}
		ro := obs.NewObserver()
		r.SetObserver(ro)
		want, err := o.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ro.Snapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("observeFirst=%v: restored snapshot differs:\n%s\nvs\n%s", observeFirst, got, want)
		}
		if bytes.Contains(want, []byte("fault.")) {
			t.Fatalf("observeFirst=%v: disarmed snapshot lists fault.* metrics", observeFirst)
		}
	}
}

// TestFaultedSnapshotDeterministicAcrossWorkers pins the acceptance
// criterion "same fault seed ⇒ byte-identical metrics snapshot at any
// -workers count": a batch of faulted, observed simulations produces the
// same snapshot bytes whether the batch runs serially or on a pool.
func TestFaultedSnapshotDeterministicAcrossWorkers(t *testing.T) {
	const runs = 6
	snapshots := func(workers int) [][]byte {
		out := make([][]byte, runs)
		err := parallel.For(runs, workers, func(i int) error {
			cfg := chaosConfig(buffer.DAMQ, sw.Discarding, uint64(i+1))
			cfg.WarmupCycles = 100
			cfg.MeasureCycles = 1500
			s, err := New(cfg)
			if err != nil {
				return err
			}
			if err := s.SetFaults(chaosFaults); err != nil {
				return err
			}
			o := obs.NewObserver()
			s.SetObserver(o)
			s.Run()
			raw, err := o.Snapshot().Encode()
			if err != nil {
				return err
			}
			out[i] = raw
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := snapshots(1)
	pooled := snapshots(4)
	for i := range serial {
		if !bytes.Equal(serial[i], pooled[i]) {
			t.Fatalf("run %d: snapshot differs between workers=1 and workers=4", i)
		}
	}
	// The criterion is about faulted runs; make sure faults actually
	// appear in the snapshots being compared.
	if !bytes.Contains(serial[0], []byte(fault.MetricLinkDrops)) {
		t.Fatalf("faulted snapshot missing %s:\n%s", fault.MetricLinkDrops, serial[0])
	}
}

// TestFaultSeedZeroDerivedFromSimSeed: with fault seed 0 the schedule is
// derived from the simulation seed — replayable (same sim seed → same
// faults) but distinct across sim seeds by default.
func TestFaultSeedZeroDerivedFromSimSeed(t *testing.T) {
	run := func(simSeed uint64) int64 {
		s, err := New(chaosConfig(buffer.DAMQ, sw.Discarding, simSeed))
		if err != nil {
			t.Fatal(err)
		}
		fc := fault.Config{LinkTransientRate: 1e-3}
		if err := s.SetFaults(fc); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			s.Step(true)
		}
		return s.Faulted()
	}
	a1, a2, b := run(7), run(7), run(8)
	if a1 != a2 {
		t.Fatalf("same sim seed gave different fault totals: %d vs %d", a1, a2)
	}
	if a1 == 0 {
		t.Fatal("no faults fired at rate 1e-3 over 3000 cycles")
	}
	_ = b // b may coincidentally equal a1; deriving distinct schedules is probabilistic
}

// TestSetFaultsAfterStepRejected pins the arm-before-stepping contract.
func TestSetFaultsAfterStepRejected(t *testing.T) {
	s, err := New(chaosConfig(buffer.DAMQ, sw.Discarding, 1))
	if err != nil {
		t.Fatal(err)
	}
	s.Step(false)
	if err := s.SetFaults(chaosFaults); err == nil {
		t.Fatal("SetFaults accepted after stepping")
	}
}

// TestSetFaultsValidates propagates config validation.
func TestSetFaultsValidates(t *testing.T) {
	s, err := New(chaosConfig(buffer.DAMQ, sw.Discarding, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaults(fault.Config{LinkDeadRate: 2}); err == nil {
		t.Fatal("SetFaults accepted rate 2")
	}
}

// TestStaticBuffersSkipSlotFaults: the static organizations (FIFO,
// SAMQ) ignore slot faults, which apply to pooled kinds only, and link
// faults still work.
func TestStaticBuffersSkipSlotFaults(t *testing.T) {
	for _, kind := range []buffer.Kind{buffer.FIFO, buffer.SAMQ} {
		cfg := chaosConfig(kind, sw.Discarding, 3)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fc := chaosFaults
		fc.SlotStuckRate = 0.01 // aggressive: would quarantine everything if applied
		if err := s.SetFaults(fc); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			s.Step(true)
		}
		res := s.Collect()
		if s.QuarantinedSlots() != 0 {
			t.Fatalf("%v: quarantined %d slots on a static organization", kind, s.QuarantinedSlots())
		}
		got := res.Delivered + res.DiscardedInNet + res.FaultedInNet + s.InFlight()
		if res.Injected != got {
			t.Fatalf("%v: conservation broken", kind)
		}
	}
}
