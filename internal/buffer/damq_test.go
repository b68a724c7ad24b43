package buffer

import (
	"strings"
	"testing"
	"testing/quick"

	"damq/internal/packet"
	"damq/internal/rng"
)

func TestDAMQInvariantsFresh(t *testing.T) {
	for _, cap := range []int{1, 4, 8, 12, 64} {
		b := NewDAMQ(4, cap)
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
	}
}

func TestDAMQFreeListRecycling(t *testing.T) {
	b := NewDAMQ(2, 3)
	// Fill, drain, refill repeatedly; the free list must recycle slots.
	for round := 0; round < 10; round++ {
		for i := uint64(0); i < 3; i++ {
			if err := b.Accept(mk(i, int(i)%2, 1)); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if b.Free() != 0 {
			t.Fatalf("round %d: free = %d", round, b.Free())
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("round %d full: %v", round, err)
		}
		for out := 0; out < 2; out++ {
			for b.Pop(out) != nil {
			}
		}
		if b.Free() != 3 || b.Len() != 0 {
			t.Fatalf("round %d: free=%d len=%d after drain", round, b.Free(), b.Len())
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("round %d empty: %v", round, err)
		}
	}
}

func TestDAMQMultiSlotPacketChaining(t *testing.T) {
	b := NewDAMQ(4, 12)
	p1 := mk(1, 0, 3)
	p2 := mk(2, 0, 2)
	p3 := mk(3, 1, 4)
	for _, p := range []*packet.Packet{p1, p2, p3} {
		if err := b.Accept(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if b.Free() != 3 {
		t.Fatalf("free = %d, want 3", b.Free())
	}
	if b.QueueSlots(0) != 5 || b.QueueSlots(1) != 4 {
		t.Fatalf("queue slots = %d,%d", b.QueueSlots(0), b.QueueSlots(1))
	}
	if got := b.Pop(0); got != p1 {
		t.Fatalf("Pop(0) = %v", got)
	}
	if b.Free() != 6 {
		t.Fatalf("free = %d after pop, want 6", b.Free())
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := b.Pop(0); got != p2 {
		t.Fatalf("second Pop(0) = %v", got)
	}
	if got := b.Pop(1); got != p3 {
		t.Fatalf("Pop(1) = %v", got)
	}
	if b.Free() != 12 || b.Len() != 0 {
		t.Fatalf("buffer not empty after draining: free=%d len=%d", b.Free(), b.Len())
	}
}

func TestDAMQInterleavedQueuesShareSlots(t *testing.T) {
	// Interleave arrivals for different outputs so queue lists interleave
	// physically in the pool, then verify list integrity and order.
	b := NewDAMQ(4, 16)
	var ids [4][]uint64
	id := uint64(0)
	for i := 0; i < 16; i++ {
		out := i % 4
		id++
		if err := b.Accept(mk(id, out, 1)); err != nil {
			t.Fatal(err)
		}
		ids[out] = append(ids[out], id)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for out := 0; out < 4; out++ {
		for _, want := range ids[out] {
			got := b.Pop(out)
			if got == nil || got.ID != want {
				t.Fatalf("queue %d: got %v, want id %d", out, got, want)
			}
		}
	}
}

func TestDAMQRejectsZeroSlotPacket(t *testing.T) {
	b := NewDAMQ(2, 4)
	if err := b.Accept(&packet.Packet{OutPort: 0, Slots: 0}); err == nil {
		t.Fatal("accepted zero-slot packet")
	}
}

// damqOp is one random operation for the property test.
type damqOp struct {
	Accept bool
	Out    uint8
	Slots  uint8
}

func TestDAMQPropertyRandomOps(t *testing.T) {
	// Property: after any sequence of accepts and pops, all structural
	// invariants hold and slot conservation is exact.
	f := func(ops []damqOp, seed uint64) bool {
		b := NewDAMQ(4, 12)
		src := rng.New(seed)
		var id uint64
		for _, op := range ops {
			out := int(op.Out) % 4
			if op.Accept {
				slots := int(op.Slots)%4 + 1
				id++
				p := mk(id, out, slots)
				if b.CanAccept(p) {
					if err := b.Accept(p); err != nil {
						t.Logf("accept failed despite CanAccept: %v", err)
						return false
					}
				} else if b.Free() >= slots {
					t.Logf("CanAccept false with %d free, %d needed", b.Free(), slots)
					return false
				}
			} else {
				b.Pop(out)
			}
			if src.Bool(0.2) {
				if err := b.CheckInvariants(); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		return b.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDAMQLongRandomSoak(t *testing.T) {
	// A longer directed soak than the quick property: heavy churn with
	// variable sizes and occasional full drains.
	src := rng.New(99)
	b := NewDAMQ(4, 32)
	live := 0
	for i := 0; i < 20000; i++ {
		switch {
		case src.Bool(0.55):
			p := mk(uint64(i), src.Intn(4), src.Intn(4)+1)
			if b.CanAccept(p) {
				if err := b.Accept(p); err != nil {
					t.Fatal(err)
				}
				live++
			}
		default:
			if b.Pop(src.Intn(4)) != nil {
				live--
			}
		}
		if live != b.Len() {
			t.Fatalf("step %d: live=%d, Len=%d", i, live, b.Len())
		}
		if i%997 == 0 {
			if err := b.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDAMQHeadStableAcrossForeignPops(t *testing.T) {
	// Popping one queue must not disturb another queue's head.
	b := NewDAMQ(4, 8)
	pA := mk(1, 0, 2)
	pB := mk(2, 1, 2)
	pC := mk(3, 0, 1)
	for _, p := range []*packet.Packet{pA, pB, pC} {
		if err := b.Accept(p); err != nil {
			t.Fatal(err)
		}
	}
	if b.Pop(1) != pB {
		t.Fatal("wrong pop")
	}
	if b.Head(0) != pA {
		t.Fatal("queue 0 head disturbed by queue 1 pop")
	}
	if b.Pop(0) != pA || b.Pop(0) != pC {
		t.Fatal("queue 0 order broken")
	}
}

func TestDAMQDump(t *testing.T) {
	b := NewDAMQ(2, 6)
	if err := b.Accept(mk(1, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := b.Accept(mk(2, 1, 1)); err != nil {
		t.Fatal(err)
	}
	out := b.Dump()
	for _, want := range []string{"q0: [pkt1: 0 1]", "q1: [pkt2: 2]", "free: 3 4 5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Dump missing %q:\n%s", want, out)
		}
	}
}

func BenchmarkDAMQAcceptPop(b *testing.B) {
	buf := NewDAMQ(4, 16)
	p := mk(1, 2, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := buf.Accept(p); err != nil {
			b.Fatal(err)
		}
		if buf.Pop(2) == nil {
			b.Fatal("lost packet")
		}
	}
}

func BenchmarkFIFOAcceptPop(b *testing.B) {
	buf := MustNew(Config{Kind: FIFO, NumOutputs: 4, Capacity: 16})
	p := mk(1, 2, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := buf.Accept(p); err != nil {
			b.Fatal(err)
		}
		if buf.Pop(2) == nil {
			b.Fatal("lost packet")
		}
	}
}
