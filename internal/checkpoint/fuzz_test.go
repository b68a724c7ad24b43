package checkpoint_test

// The decode fuzzer lives in an external test package: it drives the
// full restore path (netsim imports checkpoint, so the harness cannot
// sit inside package checkpoint's own tests without a cycle) while CI
// still targets ./internal/checkpoint for the fuzz-smoke step.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/fault"
	"damq/internal/netsim"
	"damq/internal/obs"
	"damq/internal/sw"
)

// fuzzSeedCheckpoint builds a real mid-run checkpoint for the seed
// corpus. withExtras adds the blocking protocol (source backlog), faults
// and an observer, so every section of the format is present; tweak, if
// non-nil, adjusts the config to reach the branches a section walks only
// for some configs.
func fuzzSeedCheckpoint(f *testing.F, seed uint64, withExtras bool, tweak func(*netsim.Config)) []byte {
	cfg := netsim.Config{
		Radix: 4, Inputs: 16, Capacity: 4,
		WarmupCycles: 20, MeasureCycles: 30, Seed: seed,
		BufferKind: buffer.DAMQ,
		Traffic:    netsim.TrafficSpec{Kind: netsim.Uniform, Load: 0.8},
	}
	if withExtras {
		cfg.Protocol = sw.Blocking
	}
	if tweak != nil {
		tweak(&cfg)
	}
	s, err := netsim.New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	if withExtras {
		if err := s.SetFaults(fault.Config{SlotStuckRate: 1e-4, LinkTransientRate: 1e-3}); err != nil {
			f.Fatal(err)
		}
		o := obs.NewObserver()
		o.SetInterval(8)
		s.SetObserver(o)
	}
	for i := 0; i < 25; i++ {
		s.Step(i >= 20)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeCheckpoint throws arbitrary bytes at RestoreSim. The
// contract under fuzzing: every rejection is one of the two typed
// sentinels, and every accepted stream yields a simulation that can
// step and collect without panicking. The harness re-seals the CRC so
// mutations reach the structural validators instead of dying at the
// frame checksum.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(fuzzSeedCheckpoint(f, 1, false, nil))
	f.Add(fuzzSeedCheckpoint(f, 2, true, nil))
	f.Add([]byte("DAMQCKPT"))
	f.Add([]byte{})
	// BSHARE clock stamps under bursty traffic's burst registers.
	f.Add(fuzzSeedCheckpoint(f, 3, false, func(c *netsim.Config) {
		c.BufferKind = buffer.BSHARE
		c.Traffic = netsim.TrafficSpec{Kind: netsim.Bursty, Load: 0.8, MeanBurst: 3}
	}))
	// A DT shared pool holding 1-4-slot packets from the length stream,
	// with faults and an observer; shared admission needs discarding.
	f.Add(fuzzSeedCheckpoint(f, 4, true, func(c *netsim.Config) {
		c.Protocol = sw.Discarding
		c.BufferKind = buffer.DT
		c.SharedPool = true
		c.Traffic.MinSlots, c.Traffic.MaxSlots = 1, 4
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		raw := append([]byte(nil), data...)
		if len(raw) >= 24 {
			sum := crc32.ChecksumIEEE(raw[:len(raw)-4])
			binary.LittleEndian.PutUint32(raw[len(raw)-4:], sum)
		}
		s, err := netsim.RestoreSimOpts(bytes.NewReader(raw),
			netsim.RestoreOpts{Workers: 1, WorkersSet: true})
		if err != nil {
			if !errors.Is(err, cfgerr.ErrBadCheckpoint) && !errors.Is(err, cfgerr.ErrCheckpointVersion) {
				t.Fatalf("untyped restore error: %v", err)
			}
			return
		}
		// A stream that passed every validator must be runnable.
		s.Step(false)
		s.Step(true)
		s.Collect()
		s.Close()
	})
}
