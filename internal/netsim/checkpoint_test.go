package netsim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/checkpoint"
	"damq/internal/fault"
	"damq/internal/obs"
	"damq/internal/rng"
	"damq/internal/sw"
	"damq/internal/traffic"
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
			Radix: 4, Inputs: 64, Capacity: 4,
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
	digests := loadDigests(t, digestsPath)
	var mu sync.Mutex
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
		Radix: 4, Inputs: 16, Capacity: 4,
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
		cfg.WarmupCycles, cfg.MeasureCycles = 1, 1
		cfg.Traffic = TrafficSpec{Kind: Uniform, Load: 0.5}
		sim := &Sim{cfg: cfg}
		c.Section(secConfig, sim.walkConfig)
	}), "oversized geometry")
	wantCheckpointError(t, misroutedCheckpoint(t), "buffered packet queued for the wrong output")
	wantCheckpointError(t, stampedAtCycleCheckpoint(t), "arbitration stamp at the checkpoint's cycle")

	if _, err := RestoreSim(bytes.NewReader(negativeIntervalCheckpoint(t))); !errors.Is(err, cfgerr.ErrBadCheckpoint) ||
		!strings.Contains(err.Error(), "negative interval") {
		t.Fatalf("observer section with a negative interval: restore error %v, want ErrBadCheckpoint", err)
	}
}

// TestCheckpointRejectsBadLatencyHist: a shard's latency histogram
// travels with its width and sum as float64s. A width other than the
// run's ClocksPerCycle, or a sum no run of whole clock counts reaches,
// must fail the restore — accepted, the resumed run's mean latency would
// read NaN or garbage. Each case patches shard 0's field in place and
// re-seals the CRC, so only the histogram check can tell.
func TestCheckpointRejectsBadLatencyHist(t *testing.T) {
	s, err := New(Config{Radix: 4, Inputs: 64, Capacity: 4, WarmupCycles: 20, MeasureCycles: 60,
		Seed: 5, BufferKind: buffer.DAMQ, Traffic: TrafficSpec{Kind: Uniform, Load: 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for s.cycle < 20 {
		s.Step(false)
	}
	s.warmupBoundary = s.cycle
	for i := 0; i < 40; i++ {
		s.Step(true)
	}
	h := s.shards[0].partial.LatencyHist
	if h.Total() == 0 || h.Overflow() != 0 {
		t.Fatalf("shard 0 histogram has %d samples, %d in overflow; want some, none", h.Total(), h.Overflow())
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	le := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	// In stream order the histogram is width, bucket count, buckets,
	// overflow, total, sum; shard 0's comes first.
	widthAt := bytes.Index(raw, le(math.Float64bits(float64(h.Width())), uint64(len(h.Buckets()))))
	sumAt := bytes.Index(raw, le(uint64(h.Total()), math.Float64bits(float64(h.Sum())))) + 8
	if widthAt < 0 || sumAt < 8 {
		t.Fatalf("shard 0 histogram not found in the stream (width at %d, sum at %d)", widthAt, sumAt)
	}
	patched := func(at int, v float64) []byte {
		mut := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint64(mut[at:], math.Float64bits(v))
		patchCRC(mut)
		return mut
	}
	if r, err := RestoreSim(bytes.NewReader(patched(sumAt, float64(h.Sum())))); err != nil {
		t.Fatalf("unpatched histogram rejected: %v", err)
	} else {
		r.Close()
	}
	for _, tc := range []struct {
		what string
		at   int
		v    float64
	}{
		{"NaN sum", sumAt, math.NaN()},
		{"negative sum", sumAt, -1e9},
		{"sum beyond the buckets", sumAt, 1e18},
		{"fractional sum", sumAt, float64(h.Sum()) + 0.5},
		{"width other than ClocksPerCycle", widthAt, float64(h.Width()) / 2},
	} {
		wantCheckpointError(t, patched(tc.at, tc.v), tc.what)
	}
}

// observedCheckpoint checkpoints a 64-input DAMQ network observed at
// interval 10 after 80 cycles, the last 60 measured, and returns the
// stream with the observer.
func observedCheckpoint(t *testing.T) ([]byte, *obs.Observer) {
	t.Helper()
	s, err := New(Config{Radix: 4, Inputs: 64, Capacity: 4, WarmupCycles: 20, MeasureCycles: 200,
		Seed: 5, BufferKind: buffer.DAMQ, Traffic: TrafficSpec{Kind: Uniform, Load: 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	o := obs.NewObserver()
	o.SetInterval(10)
	s.SetObserver(o)
	for i := 0; i < 80; i++ {
		s.Step(i >= 20)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), o
}

// negativeIntervalCheckpoint patches the observer section's interval
// (its first field) of observedCheckpoint's stream to -1 and re-seals
// the CRC, so only the observer's own validation can tell. The
// instrument checks themselves are obs.Observer.Walk's and
// stats.Histogram.Walk's, tested in their packages; this case pins that
// restore runs them and types their failure.
func negativeIntervalCheckpoint(t *testing.T) []byte {
	t.Helper()
	raw, _ := observedCheckpoint(t)
	// Sections follow the 20-byte frame header as tag, length, body.
	at := 20
	for raw[at] != secObserver {
		at += 9 + int(binary.LittleEndian.Uint64(raw[at+1:]))
	}
	at += 9
	if got := int64(binary.LittleEndian.Uint64(raw[at:])); got != 10 {
		t.Fatalf("observer section starts with %d, want the interval 10", got)
	}
	if r, err := RestoreSim(bytes.NewReader(raw)); err != nil {
		t.Fatalf("unpatched observer section rejected: %v", err)
	} else {
		r.Close()
	}
	binary.LittleEndian.PutUint64(raw[at:], math.MaxUint64) // -1
	patchCRC(raw)
	return raw
}

// TestRecheckpointKeepsParkedObserver: a restored Sim parks the
// checkpointed observer until an observer attaches. Checkpointing it
// again before that must carry the parked values through: the second
// stream equals the first, and an observer attached after restoring it
// reads the checkpointed counters and series.
func TestRecheckpointKeepsParkedObserver(t *testing.T) {
	raw, o := observedCheckpoint(t)
	r, err := RestoreSim(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var again bytes.Buffer
	if err := r.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatalf("re-checkpoint before an observer attached wrote %d bytes, the first checkpoint %d; want the same stream",
			again.Len(), len(raw))
	}
	r2, err := RestoreSim(&again)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	o2 := obs.NewObserver()
	r2.SetObserver(o2)
	want, _ := o.Snapshot().Counter(MetricGenerated)
	if got, _ := o2.Snapshot().Counter(MetricGenerated); want == 0 || got != want {
		t.Errorf("%s after two restores = %d, checkpointed %d", MetricGenerated, got, want)
	}
	if len(o.Series()) == 0 || !reflect.DeepEqual(o2.Series(), o.Series()) {
		t.Errorf("series after two restores has %d records, checkpointed %d; want the same records",
			len(o2.Series()), len(o.Series()))
	}
}

// TestCheckpointRejectsConstantSlots: the config section keeps a slot
// for the clocks per cycle and one for the hot module, both model
// constants. Each case patches one slot of a real checkpoint and
// re-seals the CRC; restore must reject it and name the slot, while the
// unpatched stream restores.
func TestCheckpointRejectsConstantSlots(t *testing.T) {
	raw := corpusCheckpoint(t)
	if r, err := RestoreSim(bytes.NewReader(raw)); err != nil {
		t.Fatalf("unpatched checkpoint rejected: %v", err)
	} else {
		r.Close()
	}
	// The config section comes first after the 20-byte frame header, as
	// tag, length, body; every field before the two slots takes 8 bytes.
	const body = 20 + 9
	for _, tc := range []struct {
		slot        string
		at          int
		want, patch uint64
	}{
		{"clocks-per-cycle", body + 6*8, ClocksPerCycle, 6},
		{"hot-module", body + 10*8, traffic.HotModule, 3},
	} {
		mut := append([]byte(nil), raw...)
		if got := binary.LittleEndian.Uint64(mut[tc.at:]); got != tc.want {
			t.Fatalf("%s slot holds %d, want %d", tc.slot, got, tc.want)
		}
		binary.LittleEndian.PutUint64(mut[tc.at:], tc.patch)
		patchCRC(mut)
		r, err := RestoreSim(bytes.NewReader(mut))
		if r != nil {
			r.Close()
		}
		if !errors.Is(err, cfgerr.ErrBadCheckpoint) || !strings.Contains(err.Error(), tc.slot) {
			t.Errorf("%s slot patched to %d: restore error %v, want ErrBadCheckpoint naming the slot", tc.slot, tc.patch, err)
		}
	}
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
			for q := 0; q < sp.NumQueues(); q++ {
				p := sp.Head(q)
				for d := 0; p != nil && d < s.cfg.Inputs; d++ {
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

// stampedAtCycleCheckpoint checkpoints a run in which one switch claims
// to have been arbitrated in the cycle the checkpoint precedes.
// Checkpoints fall between cycles, so every true stamp is at most
// cycle-1; accepting this one would skip a round of that switch's
// arbiter fast-forward when it next receives a packet.
func stampedAtCycleCheckpoint(t *testing.T) []byte {
	t.Helper()
	s, err := New(Config{Radix: 4, Inputs: 64, Capacity: 4, WarmupCycles: 10, MeasureCycles: 10,
		Seed: 5, BufferKind: buffer.DAMQ, Traffic: TrafficSpec{Kind: Uniform, Load: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		s.Step(false)
	}
	s.shards[0].lastArb[0][0] = s.cycle
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRejectsTrailingGarbage: extra bytes after a section body
// or after the payload are corruption, not slack.
func TestCheckpointRejectsTrailingGarbage(t *testing.T) {
	raw := corpusCheckpoint(t)
	mut := append(append([]byte(nil), raw...), 0xEE)
	wantCheckpointError(t, mut, "trailing byte after frame")
}
