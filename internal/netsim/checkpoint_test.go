package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/checkpoint"
	"damq/internal/fault"
	"damq/internal/obs"
	"damq/internal/rng"
	"damq/internal/sw"
)

// runWithCheckpointAt drives s to completion exactly like Run, writing a
// checkpoint when the cycle counter reaches at (before stepping that
// cycle). It returns the checkpoint bytes and the final result, so one
// sim serves as both the snapshot source and the uninterrupted twin.
func runWithCheckpointAt(t *testing.T, s *Sim, at int64) ([]byte, *Result) {
	t.Helper()
	var buf bytes.Buffer
	save := func() {
		if s.cycle != at {
			return
		}
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatalf("Checkpoint at cycle %d: %v", at, err)
		}
	}
	for s.cycle < s.cfg.WarmupCycles {
		save()
		s.Step(false)
	}
	if s.measured == 0 {
		s.warmupBoundary = s.cycle
	}
	for s.measured < s.cfg.MeasureCycles {
		save()
		s.Step(true)
	}
	if buf.Len() == 0 {
		t.Fatalf("checkpoint cycle %d never reached", at)
	}
	return buf.Bytes(), s.Collect()
}

// tortureCase is one cell of the kill-and-resume matrix: a config
// variant, whether faults are armed, and the worker counts on the two
// sides of the checkpoint.
type tortureCase struct {
	name    string
	cfg     Config
	faults  bool
	observe bool
}

func tortureCases() []tortureCase {
	base := func(seed uint64) Config {
		return Config{
			Radix: 4, Inputs: 64, Capacity: 4, ClocksPerCycle: 12,
			WarmupCycles: 60, MeasureCycles: 200, Seed: seed,
			Traffic: TrafficSpec{Kind: Uniform, Load: 0.7},
		}
	}
	var cases []tortureCase
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := base(seed)
		switch seed {
		case 1:
			cfg.BufferKind = buffer.DAMQ
			cfg.Protocol = sw.Discarding
		case 2:
			cfg.BufferKind = buffer.DAMQ
			cfg.Protocol = sw.Blocking
			cfg.Traffic = TrafficSpec{Kind: HotSpot, Load: 0.5, HotFraction: 0.05}
		case 3:
			cfg.BufferKind = buffer.FIFO
			cfg.Protocol = sw.Discarding
			cfg.Traffic = TrafficSpec{Kind: Bursty, Load: 0.6, MeanBurst: 3}
		case 4:
			cfg.BufferKind = buffer.DT
			cfg.SharedPool = true
			cfg.Protocol = sw.Discarding
			cfg.Traffic.MinSlots, cfg.Traffic.MaxSlots = 1, 4
		case 5:
			cfg.BufferKind = buffer.BSHARE
			cfg.Protocol = sw.Discarding
			perm := make([]int, cfg.Inputs)
			for i := range perm {
				perm[i] = (i + 17) % cfg.Inputs
			}
			cfg.Traffic = TrafficSpec{Kind: Permutation, Load: 0.8, Perm: perm}
		}
		for _, faults := range []bool{false, true} {
			cases = append(cases, tortureCase{
				name:   fmt.Sprintf("seed%d/kind=%v/faults=%v", seed, cfg.BufferKind, faults),
				cfg:    cfg,
				faults: faults,
				// Half the matrix is observed and half not, so both the
				// observer section and its absence are resumed on the gang.
				observe: seed%2 == 1,
			})
		}
	}
	return cases
}

func tortureFaults() fault.Config {
	return fault.Config{SlotStuckRate: 2e-5, LinkTransientRate: 5e-4, LinkDeadRate: 1e-5}
}

var updateDigests = flag.Bool("update", false, "rewrite the digest files of the tests that run")

// digestsPath pins the on-disk checkpoint format: the sha256 of every
// torture cell's checkpoint bytes. Regenerate with
// `go test ./internal/netsim -run CheckpointResumeTorture -update` and
// review the diff as a format change.
var digestsPath = filepath.Join("testdata", "checkpoint_digests.json")

// TestCheckpointResumeTorture is the kill-and-resume harness: for every
// matrix cell it checkpoints a run at a pseudo-random cycle, restores at
// a different worker count, finishes both, and requires the resumed run
// to match the uninterrupted twin exactly — aggregate Result, metric
// snapshot bytes, and the per-packet delivery tuples after the
// checkpoint cycle. The checkpoint bytes themselves must hash to the
// cell's committed digest.
func TestCheckpointResumeTorture(t *testing.T) {
	digests := map[string]string{}
	if raw, err := os.ReadFile(digestsPath); err == nil {
		if err := json.Unmarshal(raw, &digests); err != nil {
			t.Fatalf("%s: %v", digestsPath, err)
		}
	} else if !*updateDigests {
		t.Fatal(err)
	}
	var mu sync.Mutex
	if *updateDigests {
		t.Cleanup(func() {
			out, err := json.MarshalIndent(digests, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(digestsPath, append(out, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tc := range tortureCases() {
		for _, workers := range []int{1, 8} {
			workers := workers
			tc := tc
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				t.Parallel()
				cfg := tc.cfg
				cfg.Workers = workers
				total := cfg.WarmupCycles + cfg.MeasureCycles
				at := 1 + int64(rng.New(cfg.Seed*977+uint64(workers)).Intn(int(total-1)))

				twin, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer twin.Close()
				twin.RecordDeliveries(true)
				if tc.faults {
					if err := twin.SetFaults(tortureFaults()); err != nil {
						t.Fatal(err)
					}
				}
				var twinObs *obs.Observer
				if tc.observe {
					twinObs = obs.NewObserver()
					twinObs.SetInterval(16)
					twin.SetObserver(twinObs)
				}
				raw, want := runWithCheckpointAt(t, twin, at)
				sum := sha256.Sum256(raw)
				mu.Lock()
				if *updateDigests {
					digests[t.Name()] = hex.EncodeToString(sum[:])
				} else if d := digests[t.Name()]; d != hex.EncodeToString(sum[:]) {
					t.Errorf("checkpoint bytes hash to %x, %s pins %q (the on-disk format changed)",
						sum, digestsPath, d)
				}
				mu.Unlock()

				// Resume at the flipped worker count: the checkpoint must be
				// execution-knob agnostic.
				resumedWorkers := 8
				if workers == 8 {
					resumedWorkers = 1
				}
				res, err := RestoreSimOpts(bytes.NewReader(raw), RestoreOpts{Workers: resumedWorkers, WorkersSet: true})
				if err != nil {
					t.Fatalf("restore at cycle %d: %v", at, err)
				}
				defer res.Close()
				res.RecordDeliveries(true)
				var resObs *obs.Observer
				if tc.observe {
					resObs = obs.NewObserver()
					res.SetObserver(resObs)
				}
				got := res.Run()

				if !reflect.DeepEqual(want, got) {
					t.Errorf("resumed Result differs from uninterrupted twin (checkpoint at cycle %d)\nwant %+v\ngot  %+v", at, want, got)
				}
				var tail []Delivery
				for _, dl := range twin.Deliveries() {
					if dl.DeliveredAt >= at {
						tail = append(tail, dl)
					}
				}
				if !reflect.DeepEqual(tail, res.Deliveries()) {
					t.Errorf("delivery tuples after cycle %d diverge: twin tail %d, resumed %d",
						at, len(tail), len(res.Deliveries()))
				}
				if tc.observe {
					wantSnap, err := twinObs.Snapshot().Encode()
					if err != nil {
						t.Fatal(err)
					}
					gotSnap, err := resObs.Snapshot().Encode()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(wantSnap, gotSnap) {
						t.Errorf("metric snapshots diverge after resume at cycle %d:\nwant %s\ngot  %s",
							at, wantSnap, gotSnap)
					}
				}
			})
		}
	}
}

// TestCheckpointCompletedRun: a checkpoint of a finished simulation
// restores to a Sim whose Run is a no-op returning the same Result.
func TestCheckpointCompletedRun(t *testing.T) {
	cfg := Config{Inputs: 16, WarmupCycles: 20, MeasureCycles: 50, Seed: 7,
		BufferKind: buffer.DAMQ, Traffic: TrafficSpec{Kind: Uniform, Load: 0.6}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Run()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := RestoreSim(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Run(); !reflect.DeepEqual(want, got) {
		t.Errorf("restored completed run diverges:\nwant %+v\ngot  %+v", want, got)
	}
	if res.Cycle() != cfg.WarmupCycles+cfg.MeasureCycles {
		t.Errorf("restored cycle %d, want %d", res.Cycle(), cfg.WarmupCycles+cfg.MeasureCycles)
	}
}

// TestRestoreWorkersOverride checks the knob plumbing: without an
// override the checkpointed Workers applies; with one, the override.
func TestRestoreWorkersOverride(t *testing.T) {
	cfg := Config{Inputs: 64, Workers: 8, WarmupCycles: 10, MeasureCycles: 10, Seed: 3,
		BufferKind: buffer.DAMQ, Traffic: TrafficSpec{Kind: Uniform, Load: 0.5}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	same, err := RestoreSim(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer same.Close()
	if same.Workers() != 8 {
		t.Errorf("restored Workers = %d, want the checkpointed 8", same.Workers())
	}
	over, err := RestoreSimOpts(bytes.NewReader(raw), RestoreOpts{Workers: 1, WorkersSet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	if over.Workers() != 1 {
		t.Errorf("overridden Workers = %d, want 1", over.Workers())
	}
}

// corpusCheckpoint builds a small checkpoint exercising every section:
// faults armed, observer attached, blocking backlog, variable lengths.
func corpusCheckpoint(t testing.TB) []byte {
	cfg := Config{
		Radix: 4, Inputs: 16, Capacity: 4, ClocksPerCycle: 12,
		WarmupCycles: 30, MeasureCycles: 40, Seed: 11,
		BufferKind: buffer.DAMQ, Protocol: sw.Blocking,
		Traffic: TrafficSpec{Kind: Uniform, Load: 0.9},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaults(tortureFaults()); err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	o.SetInterval(8)
	s.SetObserver(o)
	for i := 0; i < 30; i++ {
		s.Step(false)
	}
	s.warmupBoundary = s.cycle
	for i := 0; i < 20; i++ {
		s.Step(true)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wantCheckpointError asserts the corrupted-stream contract: decoding
// must fail with one of the two typed sentinels and must not panic.
func wantCheckpointError(t *testing.T, raw []byte, what string) {
	t.Helper()
	s, err := RestoreSim(bytes.NewReader(raw))
	if s != nil {
		s.Close()
	}
	if err == nil {
		t.Fatalf("%s: corrupted checkpoint restored without error", what)
	}
	if !errors.Is(err, cfgerr.ErrBadCheckpoint) && !errors.Is(err, cfgerr.ErrCheckpointVersion) {
		t.Fatalf("%s: error %v is not a checkpoint sentinel", what, err)
	}
}

// corruptionOffsets picks the byte offsets the corruption sweeps hit:
// every byte of the structure-rich prefix (frame header, config, core,
// and the leading switch state) and of the CRC-bearing tail, with the
// histogram-dominated bulk sampled on a prime stride. A full every-byte
// sweep is O(n²) in the checkpoint size for no added structural
// coverage — the bulk is long runs of identical zero buckets.
func corruptionOffsets(n int) []int {
	var offs []int
	for i := 0; i < n && i < 4096; i++ {
		offs = append(offs, i)
	}
	for i := 4096; i < n-128; i += 191 {
		offs = append(offs, i)
	}
	for i := n - 128; i < n; i++ {
		if i >= 4096 {
			offs = append(offs, i)
		}
	}
	return offs
}

// TestCheckpointTruncation: prefixes of a valid checkpoint fail with a
// typed error — every boundary in the structured prefix and tail, the
// bulk strided.
func TestCheckpointTruncation(t *testing.T) {
	raw := corpusCheckpoint(t)
	for _, i := range corruptionOffsets(len(raw)) {
		wantCheckpointError(t, raw[:i], fmt.Sprintf("truncated to %d bytes", i))
	}
}

// TestCheckpointBitFlips flips bytes with the frame CRC left stale (the
// checksum must catch every one) and, separately, with the CRC patched
// to match — driving the structural validators — where the contract is
// "typed error or clean restore, never a panic".
func TestCheckpointBitFlips(t *testing.T) {
	raw := corpusCheckpoint(t)
	offs := corruptionOffsets(len(raw))
	for _, i := range offs {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x10
		wantCheckpointError(t, mut, fmt.Sprintf("stale-CRC flip at byte %d", i))
	}
	// CRC-patched flips drive the structural validators past the
	// checksum; a flip in pure statistics (a histogram bucket) may
	// restore cleanly, which is fine — the contract is no panic and no
	// untyped error.
	for _, i := range offs {
		if i >= len(raw)-4 {
			continue
		}
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x10
		patchCRC(mut)
		s, err := RestoreSim(bytes.NewReader(mut))
		if s != nil {
			s.Close()
		}
		if err != nil && !errors.Is(err, cfgerr.ErrBadCheckpoint) && !errors.Is(err, cfgerr.ErrCheckpointVersion) {
			t.Fatalf("patched-CRC flip at byte %d: error %v is not a checkpoint sentinel", i, err)
		}
	}
}

// patchCRC rewrites the trailing frame checksum to match the mutated
// bytes, so decoding proceeds past the envelope into the validators.
func patchCRC(raw []byte) {
	if len(raw) < 4 {
		return
	}
	sum := crc32.ChecksumIEEE(raw[:len(raw)-4])
	raw[len(raw)-4] = byte(sum)
	raw[len(raw)-3] = byte(sum >> 8)
	raw[len(raw)-2] = byte(sum >> 16)
	raw[len(raw)-1] = byte(sum >> 24)
}

// TestCheckpointVersionSkew: a bumped version field fails with the
// version sentinel even with a correct CRC.
func TestCheckpointVersionSkew(t *testing.T) {
	raw := corpusCheckpoint(t)
	mut := append([]byte(nil), raw...)
	mut[8]++ // version u32 follows the 8-byte magic
	patchCRC(mut)
	_, err := RestoreSim(bytes.NewReader(mut))
	if !errors.Is(err, cfgerr.ErrCheckpointVersion) {
		t.Fatalf("version skew: got %v, want ErrCheckpointVersion", err)
	}
}

// TestCheckpointStructuralCorruption hand-builds streams that pass the
// CRC but violate the section contract.
func TestCheckpointStructuralCorruption(t *testing.T) {
	frame := func(build func(c *checkpoint.Codec)) []byte {
		c := checkpoint.NewEncoder()
		build(c)
		var buf bytes.Buffer
		if err := c.Emit(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	zero := func(c *checkpoint.Codec) error {
		var v int64
		c.I64(&v)
		return nil
	}
	wantCheckpointError(t, frame(func(c *checkpoint.Codec) {}), "empty payload")
	wantCheckpointError(t, frame(func(c *checkpoint.Codec) {
		c.Section(42, zero)
	}), "unknown section tag")
	wantCheckpointError(t, frame(func(c *checkpoint.Codec) {
		// Config alone: every other mandatory section missing.
		s, err := New(Config{Inputs: 16, Traffic: TrafficSpec{Kind: Uniform, Load: 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		c.Section(secConfig, s.walkConfig)
	}), "missing sections")
	wantCheckpointError(t, frame(func(c *checkpoint.Codec) {
		// Sections out of order: core before config.
		c.Section(secCore, zero)
		c.Section(secConfig, zero)
	}), "out-of-order sections")
	wantCheckpointError(t, frame(func(c *checkpoint.Codec) {
		// A config whose geometry passes shape checks but blows the
		// restore allocation cap.
		var cfg Config
		cfg.Radix, cfg.Inputs, cfg.Capacity = 2, 1<<16, 1<<12
		cfg.ClocksPerCycle, cfg.WarmupCycles, cfg.MeasureCycles = 12, 1, 1
		cfg.Traffic = TrafficSpec{Kind: Uniform, Load: 0.5}
		sim := &Sim{cfg: cfg}
		c.Section(secConfig, sim.walkConfig)
	}), "oversized geometry")
	wantCheckpointError(t, misroutedCheckpoint(t), "buffered packet queued for the wrong output")

	// Observer sections whose instrument values no run can produce: each
	// would corrupt the resumed run's metrics if accepted. The untouched
	// capture restores, so each rejection is the tampered field's.
	if r, err := RestoreSim(bytes.NewReader(tamperedObsCheckpoint(t, func(*Sim, *obsState) {}))); err != nil {
		t.Fatalf("untampered observer section rejected: %v", err)
	} else {
		r.Close()
	}
	for _, tc := range []struct {
		what   string
		tamper func(s *Sim, st *obsState)
	}{
		{"negative histogram sum", func(s *Sim, st *obsState) {
			obsHist(t, st, MetricLatencyInjected).sum = -1
		}},
		{"histogram sum below its buckets", func(s *Sim, st *obsState) {
			obsHist(t, st, MetricLatencyInjected).sum = 0
		}},
		{"histogram sum above its buckets", func(s *Sim, st *obsState) {
			h := obsHist(t, st, MetricQueueDepth)
			if h.overflow != 0 {
				t.Fatalf("queue-depth histogram overflowed %d times", h.overflow)
			}
			h.sum++ // width 1: the buckets pin the sum exactly
		}},
		{"last sample past the clock", func(s *Sim, st *obsState) { st.lastSample = s.cycle + 1 }},
		{"last sample below -1", func(s *Sim, st *obsState) { st.lastSample = -2 }},
		{"series cycles not increasing", func(s *Sim, st *obsState) {
			st.series[1].Cycle = st.series[0].Cycle
		}},
		{"series record past the clock", func(s *Sim, st *obsState) {
			st.series[len(st.series)-1].Cycle = s.cycle + 1
		}},
	} {
		wantCheckpointError(t, tamperedObsCheckpoint(t, tc.tamper), tc.what)
	}
}

// tamperedObsCheckpoint checkpoints a mid-run observed network after
// tamper edits the captured observer state; every other section is the
// run's own.
func tamperedObsCheckpoint(t *testing.T, tamper func(s *Sim, st *obsState)) []byte {
	t.Helper()
	s, err := New(Config{Radix: 4, Inputs: 64, Capacity: 4, WarmupCycles: 20, MeasureCycles: 200,
		Seed: 5, BufferKind: buffer.DAMQ, Traffic: TrafficSpec{Kind: Uniform, Load: 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	o.SetInterval(10)
	s.SetObserver(o)
	for s.cycle < 20 {
		s.Step(false)
	}
	s.warmupBoundary = s.cycle
	for i := 0; i < 60; i++ {
		s.Step(true)
	}
	c := checkpoint.NewEncoder()
	for _, sec := range sections {
		if sec.tag == secObserver {
			st := s.captureObs()
			tamper(s, st)
			c.Section(sec.tag, func(c *checkpoint.Codec) error { return s.walkObsState(c, st) })
			continue
		}
		if sec.present == nil || sec.present(s) {
			c.Section(sec.tag, func(c *checkpoint.Codec) error { return sec.walk(s, c) })
		}
	}
	var buf bytes.Buffer
	if err := c.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// obsHist finds the captured histogram named name.
func obsHist(t *testing.T, st *obsState, name string) *histState {
	t.Helper()
	for i := range st.hists {
		if st.hists[i].name == name {
			return &st.hists[i]
		}
	}
	t.Fatalf("no captured histogram %q", name)
	return nil
}

// misroutedCheckpoint checkpoints a mid-run DAMQ network after moving one
// buffered packet's Dest to a module its queue's output does not lead
// to. Every field stays in range, so only the routing check can tell.
func misroutedCheckpoint(t *testing.T) []byte {
	t.Helper()
	s, err := New(Config{Radix: 4, Inputs: 64, Capacity: 4, WarmupCycles: 10, MeasureCycles: 10,
		Seed: 5, BufferKind: buffer.DAMQ, Traffic: TrafficSpec{Kind: Uniform, Load: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Step(false)
	}
	for st := range s.stages {
		for _, swc := range s.stages[st] {
			sp := swc.Buffer(0).Pool()
			for _, p := range sp.SaveState().Packets {
				for d := 0; d < s.cfg.Inputs; d++ {
					if s.top.RouteDigit(d, st) != p.OutPort {
						p.Dest = d
						var buf bytes.Buffer
						if err := s.Checkpoint(&buf); err != nil {
							t.Fatal(err)
						}
						return buf.Bytes()
					}
				}
			}
		}
	}
	t.Fatal("no buffered packet after 10 cycles at load 0.9")
	return nil
}

// TestCheckpointRejectsTrailingGarbage: extra bytes after a section body
// or after the payload are corruption, not slack.
func TestCheckpointRejectsTrailingGarbage(t *testing.T) {
	raw := corpusCheckpoint(t)
	mut := append(append([]byte(nil), raw...), 0xEE)
	wantCheckpointError(t, mut, "trailing byte after frame")
}

// TestArbiterStateRoundTrip pins the arbiter Save/Load pair the switch
// section rides on.
func TestArbiterStateRoundTrip(t *testing.T) {
	a := arbiter.New(arbiter.Smart, 4, 4)
	st := a.SaveState()
	st.Prio = 99
	if err := a.LoadState(st); err == nil {
		t.Error("LoadState accepted an out-of-range priority pointer")
	}
	st.Prio = 2
	if err := a.LoadState(st); err != nil {
		t.Errorf("LoadState rejected a valid state: %v", err)
	}
	if got := a.SaveState(); !reflect.DeepEqual(got.Stale, st.Stale) || got.Prio != 2 {
		t.Errorf("arbiter state did not round-trip: %+v vs %+v", got, st)
	}
}
