package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/fault"
	"damq/internal/packet"
	"damq/internal/stats"
	"damq/internal/sw"
)

// blockingDigestsPath pins the blocking protocol's trajectories for every
// buffer kind: the sha256 of each cell's Result and final buffer state.
// Regenerate with `go test ./internal/netsim -run BlockingKindsDigest
// -update` and review the diff as a change of simulated behaviour.
var blockingDigestsPath = filepath.Join("testdata", "blocking_digests.json")

// blockingCell is one pinned blocking run. resumeAt > 0 checkpoints the
// run at that cycle and finishes it from the restored copy at 2 workers.
type blockingCell struct {
	name     string
	cfg      Config
	faults   *fault.Config
	resumeAt int64
}

func blockingCells() []blockingCell {
	base := func(kind buffer.Kind, capacity, maxSlots int) Config {
		cfg := Config{
			Radix: 4, Inputs: 64, BufferKind: kind, Capacity: capacity,
			Policy: arbiter.Smart, Protocol: sw.Blocking, ClocksPerCycle: 12,
			Traffic:      TrafficSpec{Kind: HotSpot, Load: 0.7, HotFraction: 0.05},
			WarmupCycles: 100, MeasureCycles: 500, Seed: 17,
		}
		if maxSlots > 1 {
			cfg.Traffic.MinSlots, cfg.Traffic.MaxSlots = 1, maxSlots
		}
		switch kind {
		case buffer.FB:
			cfg.Sharing.Classes = 2
		case buffer.BSHARE:
			// A target this short is outlived by blocked heads, so the
			// delay-driven shrink of the allowance takes part.
			cfg.Sharing.DelayTarget = 3
		}
		return cfg
	}
	var cells []blockingCell
	for _, kind := range buffer.AllKinds() {
		cells = append(cells,
			blockingCell{name: fmt.Sprintf("%v/slots=1", kind), cfg: base(kind, 4, 1)},
			// 16 slots leave SAMQ and SAFC a 4-slot queue budget, so the
			// largest packet still fits a partition.
			blockingCell{name: fmt.Sprintf("%v/slots=1-4", kind), cfg: base(kind, 16, 4)})
	}
	stuck := fault.Config{SlotStuckRate: 2e-4}
	resumed := base(buffer.BSHARE, 16, 4)
	resumed.Seed = 18
	cells = append(cells,
		blockingCell{name: "DAMQ/slots=1-4/stuck", cfg: base(buffer.DAMQ, 16, 4), faults: &stuck},
		blockingCell{name: "BSHARE/slots=1-4/resumed", cfg: resumed, resumeAt: 270})
	return cells
}

// TestBlockingKindsDigest pins blocking-protocol runs of all eight buffer
// kinds, with single-slot and 1-4-slot packets, one run under stuck-slot
// faults and one checkpointed mid-run and resumed at 2 workers. Each cell
// runs at 1 and 2 workers, and both must hash to the committed digest of
// the Result and the final slot-pool state.
func TestBlockingKindsDigest(t *testing.T) {
	digests := loadDigests(t, blockingDigestsPath)
	var mu sync.Mutex
	for _, bc := range blockingCells() {
		t.Run(bc.name, func(t *testing.T) {
			t.Parallel()
			var sums [2]string
			for i, workers := range []int{1, 2} {
				sums[i] = runBlockingCell(t, bc, workers)
			}
			if sums[0] != sums[1] {
				t.Fatalf("workers=1 digest %s, workers=2 digest %s", sums[0], sums[1])
			}
			mu.Lock()
			defer mu.Unlock()
			if *updateDigests {
				digests[bc.name] = sums[0]
			} else if d := digests[bc.name]; d != sums[0] {
				t.Errorf("run hashes to %s, %s pins %q (the blocking trajectory changed)",
					sums[0], blockingDigestsPath, d)
			}
		})
	}
}

// TestRoomExactAtStepBoundary checks the latch of the published room at
// the clock edge: a pop leaves its buffer's row as it was during the
// route phase, so after every Step each stage>0 buffer's row must again
// agree with CanAcceptOut for every output, class and slot count. It
// runs every blocking digest cell — all eight kinds, 1-slot and 1-4-slot
// packets, FB classes, BSHARE ages, stuck-slot faults — at 1 and 3
// workers.
func TestRoomExactAtStepBoundary(t *testing.T) {
	for _, bc := range blockingCells() {
		t.Run(bc.name, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 3} {
				cfg := bc.cfg
				cfg.Workers = workers
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if bc.faults != nil {
					if err := s.SetFaults(*bc.faults); err != nil {
						t.Fatal(err)
					}
				}
				for s.Cycle() < 300 {
					s.Step(true)
					if msg := roomMismatchAt(s); msg != "" {
						t.Fatalf("workers=%d after cycle %d: %s", workers, s.Cycle()-1, msg)
					}
				}
			}
		})
	}
}

// roomMismatchAt returns the first stage>0 buffer register of s whose
// published room disagrees with CanAcceptOut, or "" when all agree.
func roomMismatchAt(s *Sim) string {
	k := s.cfg.Radix
	for st := 1; st < len(s.stages); st++ {
		d := &s.down[st-1][0]
		row := k * d.Classes
		for si, swc := range s.stages[st] {
			for in := 0; in < k; in++ {
				b := swc.Buffer(in)
				room := d.Room[(si*k+in)*row : (si*k+in+1)*row]
				for c := 0; c < d.Classes; c++ {
					p := &packet.Packet{ID: 1}
					for buffer.Class(p, d.Classes) != c {
						p.ID++
					}
					for out := 0; out < k; out++ {
						r := room[out*d.Classes+c]
						for p.Slots = 1; p.Slots <= b.Capacity()+1; p.Slots++ {
							if want := b.CanAcceptOut(p, out); want != (p.Slots <= int(r)) {
								return fmt.Sprintf("stage %d switch %d input %d out %d class %d slots %d: CanAcceptOut %v, room %d",
									st, si, in, out, c, p.Slots, want, r)
							}
						}
					}
				}
			}
		}
	}
	return ""
}

// loadDigests reads the committed digest pins at path. Under -update a
// missing file is no error, and the map as the test leaves it is written
// back to path when the test finishes.
func loadDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	digests := map[string]string{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &digests); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	} else if !*updateDigests {
		t.Fatal(err)
	}
	if *updateDigests {
		t.Cleanup(func() {
			out, err := json.MarshalIndent(digests, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	return digests
}

// runBlockingCell runs one cell at the given worker count and returns the
// hex sha256 of its Result and final buffer state.
func runBlockingCell(t *testing.T, bc blockingCell, workers int) string {
	t.Helper()
	cfg := bc.cfg
	cfg.Workers = workers
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if bc.faults != nil {
		if err := s.SetFaults(*bc.faults); err != nil {
			t.Fatal(err)
		}
	}
	if bc.resumeAt == 0 {
		res := s.Run()
		if bc.faults != nil && s.QuarantinedSlots() == 0 {
			t.Fatal("the stuck-slot schedule quarantined no slot")
		}
		return digestBlockingRun(t, s, res)
	}
	raw, twin := runWithCheckpointAt(t, s, bc.resumeAt)
	resumed, err := RestoreSimOpts(bytes.NewReader(raw), RestoreOpts{Workers: 2, WorkersSet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	sum := digestBlockingRun(t, resumed, resumed.Run())
	if sum != digestBlockingRun(t, s, twin) {
		t.Fatalf("run resumed at cycle %d diverges from its uninterrupted twin", bc.resumeAt)
	}
	return sum
}

// digestBlockingRun hashes res and every slot pool of s, after checking
// the pools' structural invariants.
func digestBlockingRun(t *testing.T, s *Sim, res *Result) string {
	t.Helper()
	if err := s.CheckBuffers(); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashResult(h, res)
	for st, row := range s.stages {
		for si, swc := range row {
			for in := 0; in < swc.Ports(); in++ {
				sp := swc.Buffer(in).Pool()
				fmt.Fprintf(h, "%d/%d/%d now %d\n%s", st, si, in, sp.Now(), sp.Dump())
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashResult writes every measured quantity of res to h, floats as exact
// hex words.
func hashResult(h hash.Hash, res *Result) {
	fmt.Fprintf(h, "cycles %d gen %d inj %d del %d entry %d net %d faulted %d\n",
		res.Config.MeasureCycles, res.Generated, res.Injected, res.Delivered,
		res.DiscardedAtEntry, res.DiscardedInNet, res.FaultedInNet)
	sum := func(name string, s *stats.Summary) {
		fmt.Fprintf(h, "%s %d %x %x %x %x\n", name, s.N(), s.Mean(), s.Variance(), s.Min(), s.Max())
	}
	sum("born", &res.LatencyFromBorn)
	sum("injected", &res.LatencyFromInjection)
	sum("hot", &res.HotLatency)
	sum("cold", &res.ColdLatency)
	sum("occupancy", &res.Occupancy)
	sum("backlog", &res.SourceBacklog)
	for st := range res.StageOccupancy {
		sum(fmt.Sprintf("stage%d", st), &res.StageOccupancy[st])
	}
	fmt.Fprintf(h, "hist %v %d %d %x\n", res.LatencyHist.Buckets(), res.LatencyHist.Overflow(),
		res.LatencyHist.Total(), res.LatencyHist.Mean())
}
