package buffer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"damq/internal/cfgerr"
	"damq/internal/checkpoint"
	"damq/internal/packet"
)

// newWalkPool returns an empty pool of nq queues over capacity slots,
// with the BShare clock when clock is set.
func newWalkPool(nq, capacity int, clock bool) *SlotPool {
	sp := new(SlotPool)
	sp.init(nq, capacity)
	if clock {
		sp.EnableClock()
	}
	return sp
}

// busyPool is a 3-queue, 12-slot clocked pool in mid-run shape: multi-slot
// packets on every queue, slots freed out of index order, one slot
// quarantined, one pending quarantine, and the clock advanced.
func busyPool() *SlotPool {
	sp := newWalkPool(3, 12, true)
	var id uint64
	push := func(q, slots int) {
		id++
		sp.Push(q, &packet.Packet{ID: id, Source: int(id) % 5, Dest: q, Slots: slots,
			Born: int64(id), Injected: int64(id) + 1, Hot: id%2 == 0, OutPort: q, Bytes: 8 * slots})
		sp.Tick()
	}
	push(0, 2)
	push(1, 1)
	push(2, 3)
	push(0, 1)
	sp.Pop(0)
	push(1, 2)
	sp.Pop(2)
	sp.QuarantineSlot(6) // holds queue 0's remaining packet: pending
	sp.QuarantineSlot(3) // free: quarantined now
	push(2, 2)
	return sp
}

// slotBound is the packet check the walk tests pass: the simulator's
// own check also bounds a packet's slots by its pool.
func slotBound(p *packet.Packet) error {
	if p.Slots < 1 || p.Slots > 12 {
		return fmt.Errorf("packet %d occupies %d slots", p.ID, p.Slots)
	}
	return nil
}

// encodePool frames sp's walk as a checkpoint stream.
func encodePool(t *testing.T, sp *SlotPool) []byte {
	t.Helper()
	c := checkpoint.NewEncoder()
	if err := sp.Walk(c, slotBound); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodePool walks the stream raw into sp and returns the first error:
// the envelope's, the walk's, or unread bytes.
func decodePool(raw []byte, sp *SlotPool) error {
	c, err := checkpoint.NewDecoderBytes(raw)
	if err != nil {
		return err
	}
	if err := sp.Walk(c, slotBound); err != nil {
		return err
	}
	return c.Done()
}

// reseal overwrites raw's CRC trailer to match its contents.
func reseal(raw []byte) []byte {
	n := len(raw) - 4
	binary.LittleEndian.PutUint32(raw[n:], crc32.ChecksumIEEE(raw[:n]))
	return raw
}

// samePool fails the test unless got's registers, stamps, quarantine
// state and packet fields equal want's.
func samePool(t *testing.T, got, want *SlotPool) {
	t.Helper()
	if !slices.Equal(got.next, want.next) || !slices.Equal(got.queues, want.queues) ||
		got.freeHead != want.freeHead || got.freeTail != want.freeTail || got.freeCount != want.freeCount {
		t.Fatalf("registers differ:\n got %v %v free %d..%d (%d)\nwant %v %v free %d..%d (%d)",
			got.next, got.queues, got.freeHead, got.freeTail, got.freeCount,
			want.next, want.queues, want.freeHead, want.freeTail, want.freeCount)
	}
	if !slices.Equal(got.quar, want.quar) || (got.quar == nil) != (want.quar == nil) || got.quarCount != want.quarCount {
		t.Fatalf("quarantine state %v (%d), want %v (%d)", got.quar, got.quarCount, want.quar, want.quarCount)
	}
	if !slices.Equal(got.stamp, want.stamp) || got.now != want.now {
		t.Fatalf("clock %v at %d, want %v at %d", got.stamp, got.now, want.stamp, want.now)
	}
	for s := range want.owner {
		g, w := got.owner[s], want.owner[s]
		if (g == nil) != (w == nil) || (g != nil && *g != *w) {
			t.Fatalf("slot %d owner %v, want %v", s, g, w)
		}
	}
}

// TestSlotPoolWalkRoundTrip: a pool walked into a fresh pool of the same
// geometry — and into a used one — holds the same registers, and the
// operations that follow use the same slots and return the same packets.
func TestSlotPoolWalkRoundTrip(t *testing.T) {
	clean := newWalkPool(3, 12, true)
	clean.Push(1, &packet.Packet{ID: 7, Slots: 2, OutPort: 1})
	for _, tc := range []struct {
		name string
		sp   *SlotPool
	}{
		{"busy", busyPool()},
		{"no quarantine", clean},
		{"no clock", newWalkPool(3, 12, false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := encodePool(t, tc.sp)
			for _, into := range []*SlotPool{newWalkPool(3, 12, tc.sp.stamp != nil), busyPool()} {
				if (into.stamp != nil) != (tc.sp.stamp != nil) {
					continue
				}
				if err := decodePool(raw, into); err != nil {
					t.Fatal(err)
				}
				samePool(t, into, tc.sp)
				if err := into.CheckInvariants(nil); err != nil {
					t.Fatal(err)
				}
			}
			want, got := tc.sp, newWalkPool(3, 12, tc.sp.stamp != nil)
			if err := decodePool(raw, got); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				q, slots := i%3, 1+i%2
				if i%3 == 2 {
					pw, pg := want.Pop(q), got.Pop(q)
					if (pw == nil) != (pg == nil) || (pw != nil && *pw != *pg) {
						t.Fatalf("op %d: Pop(%d) = %v, want %v", i, q, pg, pw)
					}
				} else if want.FreeSlots() >= slots {
					want.Push(q, &packet.Packet{ID: uint64(100 + i), Slots: slots, OutPort: q})
					got.Push(q, &packet.Packet{ID: uint64(100 + i), Slots: slots, OutPort: q})
				}
				want.Tick()
				got.Tick()
				samePool(t, got, want)
			}
		})
	}
}

// TestSlotPoolWalkRejects: each check the walk makes while decoding
// rejects a stream that breaks it. Register values are planted in a
// pool before encoding (encoding does not validate); lengths a walk
// writes from the pool's own geometry are patched into the stream.
func TestSlotPoolWalkRejects(t *testing.T) {
	const capacity, nq = 12, 3
	// Stream offsets of the length prefixes the cases patch: the owner
	// map's follows the 20-byte frame header and the next pointers; the
	// quarantine bytes' follows the owner map, the free list's head, tail
	// and count, the four queue register arrays (two of int32s, two of
	// int64s) and the quarantine flag; the stamps' follows the
	// quarantine bytes and count and the clock flag; the packet count
	// follows the stamps and the tick.
	ownerAt := 20 + 8 + 4*capacity
	quarAt := ownerAt + 8 + 4*capacity + 4 + 4 + 8 + 2*(8+4*nq) + 2*(8+8*nq) + 1
	stampAt := quarAt + 8 + capacity + 8 + 1
	pktsAt := stampAt + 8 + 8*capacity + 8
	patched := func(at int, v uint64) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			raw := encodePool(t, busyPool())
			binary.LittleEndian.PutUint64(raw[at:], v)
			return reseal(raw)
		}
	}
	// Slot 2 holds busyPool's first packet, so its owner index is 0.
	ownerIndex := func(t *testing.T) []byte {
		raw := encodePool(t, busyPool())
		binary.LittleEndian.PutUint32(raw[ownerAt+8+4*2:], 1)
		return reseal(raw)
	}
	planted := func(plant func(sp *SlotPool)) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			sp := busyPool()
			plant(sp)
			return encodePool(t, sp)
		}
	}
	other := func(nq, capacity int, clock bool) func(*testing.T) []byte {
		return func(t *testing.T) []byte { return encodePool(t, newWalkPool(nq, capacity, clock)) }
	}
	for _, tc := range []struct {
		name   string
		stream func(*testing.T) []byte
		clock  bool // target pool has the BShare clock
		want   string
	}{
		{"fewer slots", other(nq, capacity-1, true), true, "state for 11 slots loaded into 12-slot pool"},
		{"owner map length", patched(ownerAt, capacity+1), true, "owner map for 13 slots"},
		{"more queues", other(nq+1, capacity, true), true, "state for 4 queues loaded into 3-queue pool"},
		{"clock in stream only", other(nq, capacity, true), false, "clock presence mismatch"},
		{"clock in pool only", other(nq, capacity, false), true, "clock presence mismatch"},
		{"stamp count", patched(stampAt, capacity-1), true, "11 enqueue stamps for 12 slots"},
		{"quarantine byte count", patched(quarAt, capacity-1), true, "11 quarantine bytes for 12 slots"},
		{"owner out of order", ownerIndex, true, "slot 2 owner index 1 breaks packet order"},
		{"packet count", patched(pktsAt, 9), true, "owner slots for 9 packets"},
		{"next past the pool", planted(func(sp *SlotPool) { sp.next[5] = capacity }), true, "next register points at invalid slot 12"},
		{"next below nil", planted(func(sp *SlotPool) { sp.next[5] = -2 }), true, "next register points at invalid slot -2"},
		{"queue head", planted(func(sp *SlotPool) { sp.queue(1)[regHead] = 40 }), true, "queue 1 head/tail registers out of range"},
		{"queue tail", planted(func(sp *SlotPool) { sp.queue(2)[regTail] = -5 }), true, "queue 2 head/tail registers out of range"},
		{"queue packets", planted(func(sp *SlotPool) { sp.queue(0)[regPkts] = capacity + 1 }), true, "queue counter 13 out of range"},
		{"queue slots", planted(func(sp *SlotPool) { sp.queue(1)[regSlots] = -1 }), true, "queue counter -1 out of range"},
		{"free head", planted(func(sp *SlotPool) { sp.freeHead = capacity }), true, "free list registers out of range"},
		{"free tail", planted(func(sp *SlotPool) { sp.freeTail = -3 }), true, "free list registers out of range"},
		{"free count", planted(func(sp *SlotPool) { sp.freeCount = capacity + 1 }), true, "free count 13 out of range"},
		{"quarantine count", planted(func(sp *SlotPool) { sp.quarCount = -1 }), true, "quarantine count -1 out of range"},
		{"quarantine state", planted(func(sp *SlotPool) { sp.quar[7] = 3 }), true, "slot 7 has unknown quarantine state 3"},
		{"packet check", planted(func(sp *SlotPool) { sp.Head(1).Slots = 0 }), true, "occupies 0 slots"},
		{"cyclic free list", planted(func(sp *SlotPool) { sp.next[sp.freeTail] = sp.freeHead }), true, "free list is cyclic"},
		{"free count off by one", planted(func(sp *SlotPool) { sp.freeCount-- }), true, "free list walk"},
		{"free tail not last", planted(func(sp *SlotPool) { sp.freeTail = sp.freeHead }), true, "free list walk"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := decodePool(tc.stream(t), newWalkPool(nq, capacity, tc.clock))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// FuzzSlotPoolWalk decodes arbitrary payloads into a fixed-geometry
// clocked pool. A stream the codec rejects must fail with the corrupt-
// checkpoint sentinel; one the walk and the structural audit accept must
// leave a pool that serves pops and pushes with its invariants intact.
// Nothing may panic. The harness frames each payload with a valid CRC,
// so inputs reach the pool's validation instead of the checksum.
func FuzzSlotPoolWalk(f *testing.F) {
	var hdr bytes.Buffer
	if err := checkpoint.NewEncoder().Emit(&hdr); err != nil {
		f.Fatal(err)
	}
	frame := func(payload []byte) []byte {
		raw := append(append([]byte(nil), hdr.Bytes()[:12]...), make([]byte, 8)...)
		binary.LittleEndian.PutUint64(raw[12:], uint64(len(payload)))
		return reseal(append(append(raw, payload...), 0, 0, 0, 0))
	}
	for _, sp := range []*SlotPool{busyPool(), newWalkPool(3, 12, true), newWalkPool(3, 12, false)} {
		c := checkpoint.NewEncoder()
		if err := sp.Walk(c, slotBound); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Emit(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[20 : buf.Len()-4])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		sp := newWalkPool(3, 12, true)
		c, err := checkpoint.NewDecoderBytes(frame(payload))
		if err != nil {
			t.Fatalf("framed payload rejected: %v", err)
		}
		if sp.Walk(c, slotBound) != nil {
			return
		}
		if err := c.Done(); err != nil {
			if !errors.Is(err, cfgerr.ErrBadCheckpoint) {
				t.Fatalf("codec error %v does not wrap ErrBadCheckpoint", err)
			}
			return
		}
		if sp.CheckInvariants(nil) != nil {
			return
		}
		for i := 0; i < 24; i++ {
			if q := i % 3; i%2 == 0 {
				sp.Pop(q)
			} else if sp.FreeSlots() > 0 {
				sp.Push(q, &packet.Packet{ID: uint64(i), Slots: 1, OutPort: q})
			}
			sp.Tick()
			if err := sp.CheckInvariants(nil); err != nil {
				t.Fatalf("op %d on an accepted pool: %v", i, err)
			}
		}
	})
}
