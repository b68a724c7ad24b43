package buffer

import (
	"errors"
	"testing"

	"damq/internal/packet"
)

// mk builds a routed packet for tests.
func mk(id uint64, out, slots int) *packet.Packet {
	return &packet.Packet{ID: id, Dest: out, OutPort: out, Slots: slots}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{FIFO: "FIFO", SAMQ: "SAMQ", SAFC: "SAFC", DAMQ: "DAMQ"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("out-of-range Kind string = %q", Kind(99).String())
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
		got, err = ParseKind("  ")
		if err == nil {
			t.Errorf("ParseKind of garbage succeeded: %v", got)
		}
	}
	if k, err := ParseKind("damq"); err != nil || k != DAMQ {
		t.Errorf("lower-case parse failed: %v %v", k, err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Kind: FIFO, NumOutputs: 0, Capacity: 4}); err == nil {
		t.Error("accepted zero outputs")
	}
	if _, err := New(Config{Kind: FIFO, NumOutputs: 4, Capacity: 0}); err == nil {
		t.Error("accepted zero capacity")
	}
	if _, err := New(Config{Kind: SAMQ, NumOutputs: 4, Capacity: 6}); err == nil {
		t.Error("SAMQ accepted capacity not divisible by outputs")
	}
	if _, err := New(Config{Kind: SAFC, NumOutputs: 4, Capacity: 7}); err == nil {
		t.Error("SAFC accepted capacity not divisible by outputs")
	}
	if _, err := New(Config{Kind: Kind(42), NumOutputs: 4, Capacity: 4}); err == nil {
		t.Error("accepted unknown kind")
	}
	if _, err := New(Config{Kind: DAMQ, NumOutputs: 4, Capacity: 5}); err != nil {
		t.Errorf("DAMQ rejected odd capacity: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on bad config")
		}
	}()
	MustNew(Config{Kind: SAMQ, NumOutputs: 4, Capacity: 5})
}

// all four kinds at 4 outputs, 8 slots.
func allBuffers(t *testing.T) map[Kind]Buffer {
	t.Helper()
	out := map[Kind]Buffer{}
	for _, k := range Kinds() {
		out[k] = MustNew(Config{Kind: k, NumOutputs: 4, Capacity: 8})
	}
	return out
}

func TestEmptyState(t *testing.T) {
	for k, b := range allBuffers(t) {
		if b.Kind() != k {
			t.Errorf("%v: Kind() = %v", k, b.Kind())
		}
		if b.Len() != 0 || b.Free() != 8 || b.Capacity() != 8 || b.NumOutputs() != 4 {
			t.Errorf("%v: bad empty state", k)
		}
		for out := 0; out < 4; out++ {
			if b.Head(out) != nil || b.Pop(out) != nil || b.QueueLen(out) != 0 {
				t.Errorf("%v: empty buffer reports contents at out %d", k, out)
			}
		}
	}
}

func TestAcceptPopRoundTrip(t *testing.T) {
	for k, b := range allBuffers(t) {
		p := mk(1, 2, 1)
		if !b.CanAccept(p) {
			t.Fatalf("%v: rejected first packet", k)
		}
		if err := b.Accept(p); err != nil {
			t.Fatalf("%v: accept: %v", k, err)
		}
		if b.Len() != 1 || b.Free() != 7 {
			t.Fatalf("%v: len/free after accept = %d/%d", k, b.Len(), b.Free())
		}
		if got := b.Head(2); got != p {
			t.Fatalf("%v: Head(2) = %v", k, got)
		}
		if got := b.Head(1); got != nil {
			t.Fatalf("%v: Head(1) = %v, want nil", k, got)
		}
		if got := b.Pop(2); got != p {
			t.Fatalf("%v: Pop(2) = %v", k, got)
		}
		if b.Len() != 0 || b.Free() != 8 {
			t.Fatalf("%v: len/free after pop = %d/%d", k, b.Len(), b.Free())
		}
	}
}

func TestFIFOOrderAndHOLBlocking(t *testing.T) {
	b := MustNew(Config{Kind: FIFO, NumOutputs: 4, Capacity: 8})
	p1, p2, p3 := mk(1, 0, 1), mk(2, 1, 1), mk(3, 0, 1)
	for _, p := range []*packet.Packet{p1, p2, p3} {
		if err := b.Accept(p); err != nil {
			t.Fatal(err)
		}
	}
	// Head-of-line blocking: p2 wants output 1 but p1 is at the head.
	if b.Head(1) != nil {
		t.Fatal("FIFO exposed a non-head packet")
	}
	if b.QueueLen(1) != 0 {
		t.Fatal("FIFO queue length for blocked output should be 0")
	}
	if b.QueueLen(0) != 3 {
		t.Fatalf("FIFO queue length for head output = %d, want 3", b.QueueLen(0))
	}
	if got := b.Pop(0); got != p1 {
		t.Fatalf("pop1 = %v", got)
	}
	// Now p2 is the head and output 1 becomes visible.
	if got := b.Pop(1); got != p2 {
		t.Fatalf("pop2 = %v", got)
	}
	if got := b.Pop(0); got != p3 {
		t.Fatalf("pop3 = %v", got)
	}
}

func TestMultiQueueNoHOLBlocking(t *testing.T) {
	for _, k := range []Kind{SAMQ, SAFC, DAMQ} {
		b := MustNew(Config{Kind: k, NumOutputs: 4, Capacity: 8})
		p1, p2 := mk(1, 0, 1), mk(2, 1, 1)
		if err := b.Accept(p1); err != nil {
			t.Fatal(err)
		}
		if err := b.Accept(p2); err != nil {
			t.Fatal(err)
		}
		// p2 is reachable even though p1 arrived first: no HOL blocking.
		if got := b.Head(1); got != p2 {
			t.Fatalf("%v: Head(1) = %v, want %v", k, got, p2)
		}
		if got := b.Pop(1); got != p2 {
			t.Fatalf("%v: Pop(1) = %v", k, got)
		}
		if got := b.Pop(0); got != p1 {
			t.Fatalf("%v: Pop(0) = %v", k, got)
		}
	}
}

func TestPerQueueFIFOOrder(t *testing.T) {
	for _, k := range []Kind{SAMQ, SAFC, DAMQ} {
		b := MustNew(Config{Kind: k, NumOutputs: 4, Capacity: 8})
		var want []uint64
		for i := uint64(1); i <= 2; i++ {
			p := mk(i, 3, 1)
			if err := b.Accept(p); err != nil {
				t.Fatal(err)
			}
			want = append(want, i)
		}
		for _, id := range want {
			got := b.Pop(3)
			if got == nil || got.ID != id {
				t.Fatalf("%v: out-of-order pop: got %v want id %d", k, got, id)
			}
		}
	}
}

func TestStaticPartitionRejectsWhileFree(t *testing.T) {
	// The paper's core criticism of SAMQ/SAFC: a queue can be full while
	// the buffer has free slots elsewhere.
	for _, k := range []Kind{SAMQ, SAFC} {
		b := MustNew(Config{Kind: k, NumOutputs: 4, Capacity: 8}) // 2 slots per queue
		if err := b.Accept(mk(1, 0, 1)); err != nil {
			t.Fatal(err)
		}
		if err := b.Accept(mk(2, 0, 1)); err != nil {
			t.Fatal(err)
		}
		p := mk(3, 0, 1)
		if b.CanAccept(p) {
			t.Fatalf("%v: accepted 3rd packet into 2-slot queue", k)
		}
		if err := b.Accept(p); !errors.Is(err, ErrFull) {
			t.Fatalf("%v: error = %v, want ErrFull", k, err)
		}
		if b.Free() != 6 {
			t.Fatalf("%v: free = %d, want 6", k, b.Free())
		}
	}
}

func TestDynamicPoolAdaptsToSkew(t *testing.T) {
	// FIFO and DAMQ accept 8 packets for a single output (whole pool).
	for _, k := range []Kind{FIFO, DAMQ} {
		b := MustNew(Config{Kind: k, NumOutputs: 4, Capacity: 8})
		for i := uint64(0); i < 8; i++ {
			if err := b.Accept(mk(i+1, 0, 1)); err != nil {
				t.Fatalf("%v: packet %d rejected: %v", k, i, err)
			}
		}
		if b.CanAccept(mk(9, 1, 1)) {
			t.Fatalf("%v: accepted packet into full buffer", k)
		}
	}
}

func TestBadPortRejected(t *testing.T) {
	for k, b := range allBuffers(t) {
		for _, out := range []int{-1, 4} {
			if err := b.Accept(mk(1, out, 1)); !errors.Is(err, ErrBadPort) {
				t.Errorf("%v: Accept(out=%d) error = %v, want ErrBadPort", k, out, err)
			}
		}
	}
}

func TestMaxReadsPerCycle(t *testing.T) {
	for k, b := range allBuffers(t) {
		want := 1
		if k == SAFC {
			want = 4
		}
		if b.MaxReadsPerCycle() != want {
			t.Errorf("%v: reads/cycle = %d, want %d", k, b.MaxReadsPerCycle(), want)
		}
	}
}

func TestReset(t *testing.T) {
	for k, b := range allBuffers(t) {
		if err := b.Accept(mk(1, 1, 1)); err != nil {
			t.Fatal(err)
		}
		b.Reset()
		if b.Len() != 0 || b.Free() != b.Capacity() {
			t.Errorf("%v: reset did not clear buffer", k)
		}
		if err := b.Accept(mk(2, 1, 1)); err != nil {
			t.Errorf("%v: accept after reset: %v", k, err)
		}
	}
}

func TestVariableLengthAccounting(t *testing.T) {
	for _, k := range []Kind{FIFO, DAMQ} {
		b := MustNew(Config{Kind: k, NumOutputs: 4, Capacity: 8})
		big := mk(1, 0, 4)
		if err := b.Accept(big); err != nil {
			t.Fatal(err)
		}
		if b.Free() != 4 {
			t.Fatalf("%v: free = %d after 4-slot packet", k, b.Free())
		}
		huge := mk(2, 1, 5)
		if b.CanAccept(huge) {
			t.Fatalf("%v: accepted 5-slot packet into 4 free slots", k)
		}
		mid := mk(3, 1, 4)
		if err := b.Accept(mid); err != nil {
			t.Fatalf("%v: exact-fit packet rejected: %v", k, err)
		}
		if b.Free() != 0 {
			t.Fatalf("%v: free = %d, want 0", k, b.Free())
		}
		b.Pop(0)
		if b.Free() != 4 {
			t.Fatalf("%v: free = %d after popping 4-slot packet", k, b.Free())
		}
	}
}

func TestSAMQVariableLength(t *testing.T) {
	b := MustNew(Config{Kind: SAMQ, NumOutputs: 2, Capacity: 8}) // 4 per queue
	if err := b.Accept(mk(1, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if b.CanAccept(mk(2, 0, 2)) {
		t.Fatal("SAMQ accepted 2 slots into queue with 1 free")
	}
	if !b.CanAccept(mk(3, 1, 4)) {
		t.Fatal("SAMQ rejected exact-fit packet for the other queue")
	}
}

func TestStaticQueueFree(t *testing.T) {
	b := MustNew(Config{Kind: SAMQ, NumOutputs: 4, Capacity: 8})
	if b.QueueFree(0) != 2 {
		t.Fatalf("QueueFree = %d", b.QueueFree(0))
	}
	if err := b.Accept(mk(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if b.QueueFree(0) != 1 || b.QueueFree(1) != 2 {
		t.Fatal("QueueFree accounting wrong")
	}
}
