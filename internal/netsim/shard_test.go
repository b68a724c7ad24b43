package netsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/fault"
	"damq/internal/obs"
	"damq/internal/sw"
)

// shardTestCases cover both protocols, the 2×2 fast-path radix, variable
// lengths, and bursty traffic — every code path whose work the shards
// split.
func shardTestCases() []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"blocking DAMQ uniform", Config{
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic:      TrafficSpec{Kind: Uniform, Load: 0.6},
			WarmupCycles: 200, MeasureCycles: 1200,
		}},
		{"discarding SAMQ saturated", Config{
			BufferKind: buffer.SAMQ, Capacity: 4, Policy: arbiter.Dumb, Protocol: sw.Discarding,
			Traffic:      TrafficSpec{Kind: Uniform, Load: 0.9},
			WarmupCycles: 200, MeasureCycles: 1200,
		}},
		{"radix-2 blocking FIFO", Config{
			Radix: 2, Inputs: 64,
			BufferKind: buffer.FIFO, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic:      TrafficSpec{Kind: Uniform, Load: 0.4},
			WarmupCycles: 200, MeasureCycles: 1200,
		}},
		{"hot-spot bursty varlen DAMQ", Config{
			BufferKind: buffer.DAMQ, Capacity: 8, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic:      TrafficSpec{Kind: Bursty, Load: 0.25, MeanBurst: 3, MinSlots: 1, MaxSlots: 2},
			WarmupCycles: 200, MeasureCycles: 1200,
		}},
	}
}

// TestShardedMatchesSerial is the tentpole's acceptance pin: one network
// stepped with any -workers count produces a Result identical — every
// counter, every Welford summary word, every histogram bucket — to the
// serial run. reflect.DeepEqual compares the unexported float state too,
// so "byte-identical" here is literal. Run under -race this test also
// proves the phase barriers are sound.
//
// The serial reference runs at Workers 0, which New clamps to one
// worker, so no column repeats it at 1. Workers 3 and 8 oversubscribe a
// small machine, so their gangs park at every barrier; the first config
// also runs at 2 workers, which fits any machine with two cores, so the
// gang's spinning barrier is pinned too.
func TestShardedMatchesSerial(t *testing.T) {
	for i, tc := range shardTestCases() {
		workerCounts := []int{3, 8}
		if i == 0 {
			workerCounts = []int{2, 3, 8}
		}
		for _, seed := range []uint64{1, 2, 3, 4, 5} {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Seed = seed
				ref, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := ref.Run()
				for _, workers := range workerCounts {
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
					if sim.InFlight() != ref.InFlight() || sim.SourceBacklogLen() != ref.SourceBacklogLen() {
						t.Errorf("workers=%d: InFlight/backlog %d/%d, serial %d/%d", workers,
							sim.InFlight(), sim.SourceBacklogLen(), ref.InFlight(), ref.SourceBacklogLen())
					}
				}
			})
		}
	}
}

// TestShardedObservedMatchesSerial pins observed sharding: shards count
// into their own partial instruments, which the coordinator folds into
// the observer's registry at every Step boundary, so an observed run
// stepped on any worker count must match the observed serial run in its
// Result and in every byte of its snapshot, interval series included.
// The same holds after a mid-interval checkpoint restored at another
// worker count under a fresh observer. Besides the plain sharding cases
// it covers the pool-slot histogram and policy-refused counter (DT), the
// shard-local link-drop counter (faults) and a discarding radix-2 cell.
func TestShardedObservedMatchesSerial(t *testing.T) {
	type cell struct {
		name   string
		cfg    Config
		faults bool
	}
	var cells []cell
	for _, tc := range shardTestCases() {
		cells = append(cells, cell{name: tc.name, cfg: tc.cfg})
	}
	cells = append(cells,
		cell{name: "discarding DT saturated", cfg: Config{
			BufferKind: buffer.DT, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Discarding,
			Traffic:      TrafficSpec{Kind: Uniform, Load: 0.95},
			WarmupCycles: 200, MeasureCycles: 1200,
		}},
		cell{name: "blocking DAMQ link and slot faults", cfg: Config{
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Smart, Protocol: sw.Blocking,
			Traffic:      TrafficSpec{Kind: Uniform, Load: 0.6},
			WarmupCycles: 200, MeasureCycles: 1200,
		}, faults: true},
		cell{name: "radix-2 discarding DAMQ", cfg: Config{
			Radix: 2, Inputs: 64,
			BufferKind: buffer.DAMQ, Capacity: 4, Policy: arbiter.Dumb, Protocol: sw.Discarding,
			Traffic:      TrafficSpec{Kind: Uniform, Load: 0.8},
			WarmupCycles: 200, MeasureCycles: 1200,
		}},
	)
	faults := fault.Config{Seed: 3, SlotStuckRate: 1e-4, LinkTransientRate: 2e-3, LinkDeadRate: 2e-5}

	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			cfg.Seed = 7
			// Nine observed runs per cell: a third of the usual length
			// keeps the race-detector step quick and still spans eight
			// records.
			cfg.WarmupCycles, cfg.MeasureCycles = 100, 400
			build := func(workers int) (*Sim, *obs.Observer) {
				cfg := cfg
				cfg.Workers = workers
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if c.faults {
					if err := s.SetFaults(faults); err != nil {
						t.Fatal(err)
					}
				}
				o := obs.NewObserver()
				o.SetInterval(50)
				s.SetObserver(o)
				return s, o
			}
			encode := func(o *obs.Observer) []byte {
				raw, err := o.Snapshot().Encode()
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			check := func(what string, s *Sim, o *obs.Observer, want *Result, wantSnap []byte) {
				t.Helper()
				if got := s.Collect(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Result diverges from serial:\n got: %+v\nwant: %+v", what, got, want)
				}
				if got := encode(o); !bytes.Equal(got, wantSnap) {
					t.Errorf("%s: snapshot diverges from serial:\n got: %s\nwant: %s", what, got, wantSnap)
				}
			}

			ref, refObs := build(1)
			want := ref.Run()
			wantSnap := encode(refObs)
			if len(refObs.Series()) < 2 {
				t.Fatalf("serial run recorded %d interval records, want several", len(refObs.Series()))
			}
			if c.faults {
				snap := refObs.Snapshot()
				drops, _ := snap.Counter(fault.MetricLinkDrops)
				quarantined, _ := snap.Counter(fault.MetricSlotsQuarantined)
				if drops == 0 || quarantined == 0 {
					t.Fatalf("faulted cell: %d link drops, %d quarantined slots; want both > 0", drops, quarantined)
				}
			}

			// Mid-interval: 17 cycles past a series record.
			at := cfg.WarmupCycles + 5*50 + 17
			for _, w := range []struct{ run, resume int }{{1, 2}, {2, 3}, {3, 8}, {8, 1}} {
				workers, resumeWorkers := w.run, w.resume
				s, o := build(workers)
				var ckpt bytes.Buffer
				_, err := s.RunCtxCheckpoint(context.Background(), 1, func() error {
					if s.Cycle() != at {
						return nil
					}
					return s.Checkpoint(&ckpt)
				})
				s.Close()
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("workers=%d", workers), s, o, want, wantSnap)

				r, err := RestoreSimOpts(bytes.NewReader(ckpt.Bytes()), RestoreOpts{Workers: resumeWorkers, WorkersSet: true})
				if err != nil {
					t.Fatal(err)
				}
				ro := obs.NewObserver()
				r.SetObserver(ro)
				r.Run()
				r.Close()
				check(fmt.Sprintf("checkpoint at cycle %d, workers %d -> %d", at, workers, resumeWorkers), r, ro, want, wantSnap)
			}
		})
	}
}

// TestShardedStepAfterClose: Close releases the gang but not the Sim —
// further Steps fall back to the serial path and continue the exact same
// trajectory a never-closed run would take.
func TestShardedStepAfterClose(t *testing.T) {
	cfg := baseCfg(buffer.DAMQ, sw.Blocking, 0.5)
	cfg.Workers = 4
	mixed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < 400; i++ {
		mixed.Step(true)
		ref.Step(true)
	}
	mixed.Close()
	for i := 0; i < 400; i++ {
		mixed.Step(true)
		ref.Step(true)
	}
	if got, want := mixed.Collect(), ref.Collect(); !reflect.DeepEqual(got, want) {
		t.Errorf("post-Close trajectory diverges:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestWorkersValidation pins Config.Workers semantics: counts above the
// switches-per-stage shard bound are rejected with cfgerr.ErrBadWorkers,
// everything else (including negative = auto) is accepted and clamped.
func TestWorkersValidation(t *testing.T) {
	cfg := baseCfg(buffer.DAMQ, sw.Blocking, 0.3) // 64 inputs, radix 4: 16 switches/stage
	cfg.Workers = 17
	if _, err := New(cfg); !errors.Is(err, cfgerr.ErrBadWorkers) {
		t.Fatalf("Workers=17 on 16 switches/stage: err = %v, want ErrBadWorkers", err)
	}
	cfg.Workers = 17
	if err := cfg.Validate(); !errors.Is(err, cfgerr.ErrBadWorkers) {
		t.Fatalf("Validate(Workers=17) = %v, want ErrBadWorkers", err)
	}
	for _, w := range []int{-1, 0, 1, 16} {
		cfg.Workers = w
		sim, err := New(cfg)
		if err != nil {
			t.Fatalf("Workers=%d rejected: %v", w, err)
		}
		if got := sim.Workers(); got < 1 || got > 16 {
			t.Fatalf("Workers=%d resolved to %d, want within [1,16]", w, got)
		}
		sim.Close()
	}
}

// TestCollectReportsMeasuredCycles: Collect's MeasureCycles reflects the
// measuring steps actually taken, and Workers is scrubbed from the
// reported config (execution knob, not model parameter).
func TestCollectReportsMeasuredCycles(t *testing.T) {
	cfg := baseCfg(buffer.DAMQ, sw.Blocking, 0.3)
	cfg.Workers = 4
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	for i := 0; i < 100; i++ {
		sim.Step(false)
	}
	for i := 0; i < 250; i++ {
		sim.Step(true)
	}
	res := sim.Collect()
	if res.Config.MeasureCycles != 250 {
		t.Errorf("MeasureCycles = %d, want 250", res.Config.MeasureCycles)
	}
	if res.Config.Workers != 0 {
		t.Errorf("reported Workers = %d, want 0", res.Config.Workers)
	}
}

// TestChaosSoakConservationSharded extends the chaos soak to the sharded
// engine: thousands of cycles of mixed slot/link faults at -workers 4,
// asserting the conservation invariant
//
//	injected == delivered + discarded-in-net + faulted + in-flight
//
// and, against a serial twin, that the fault schedule and every counter
// replay byte-for-byte — faults are pure functions of (seed, site,
// cycle), so sharding must not move a single drop.
func TestChaosSoakConservationSharded(t *testing.T) {
	const cycles = 8_000
	var totalFaulted, totalQuarantined int64
	for _, kind := range []buffer.Kind{buffer.DAMQ, buffer.DAFC} {
		for _, proto := range []sw.Protocol{sw.Discarding, sw.Blocking} {
			for _, seed := range []uint64{1, 2, 3} {
				name := fmt.Sprintf("%v/%v/seed%d", kind, proto, seed)
				t.Run(name, func(t *testing.T) {
					fc := chaosFaults
					fc.Seed = seed * 977
					run := func(workers int) (*Sim, *Result) {
						cfg := chaosConfig(kind, proto, seed)
						cfg.Workers = workers
						s, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if err := s.SetFaults(fc); err != nil {
							t.Fatal(err)
						}
						for i := 0; i < cycles; i++ {
							s.Step(true)
							if i%1000 == 999 {
								if err := s.CheckBuffers(); err != nil {
									t.Fatalf("workers=%d cycle %d: %v", workers, i, err)
								}
							}
						}
						res := s.Collect()
						s.Close()
						return s, res
					}
					s, res := run(4)
					got := res.Delivered + res.DiscardedInNet + res.FaultedInNet + s.InFlight()
					if res.Injected != got {
						t.Fatalf("conservation broken: injected %d != delivered %d + discarded %d + faulted %d + inflight %d",
							res.Injected, res.Delivered, res.DiscardedInNet, res.FaultedInNet, s.InFlight())
					}
					sSerial, resSerial := run(1)
					if !reflect.DeepEqual(res, resSerial) {
						t.Fatalf("faulted sharded run diverges from serial:\n got: %+v\nwant: %+v", res, resSerial)
					}
					if s.Faulted() != sSerial.Faulted() || s.QuarantinedSlots() != sSerial.QuarantinedSlots() {
						t.Fatalf("fault totals diverge: %d/%d vs %d/%d",
							s.Faulted(), s.QuarantinedSlots(), sSerial.Faulted(), sSerial.QuarantinedSlots())
					}
					totalFaulted += res.FaultedInNet
					totalQuarantined += s.QuarantinedSlots()
				})
			}
		}
	}
	if totalFaulted == 0 {
		t.Fatal("no link fault fired across the whole sharded soak")
	}
	if totalQuarantined == 0 {
		t.Fatal("no slot was quarantined across the whole sharded soak")
	}
}
