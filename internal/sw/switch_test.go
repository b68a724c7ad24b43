package sw

import (
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/packet"
	"damq/internal/rng"
)

func cfg(kind buffer.Kind) Config {
	return Config{Ports: 4, BufferKind: kind, Capacity: 4, Policy: arbiter.Smart}
}

func routed(id uint64, dest int) *packet.Packet {
	return &packet.Packet{ID: id, Dest: dest, OutPort: dest, Slots: 1}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Ports: 0, BufferKind: buffer.FIFO, Capacity: 4}); err == nil {
		t.Fatal("accepted zero ports")
	}
	if _, err := New(Config{Ports: 4, BufferKind: buffer.SAMQ, Capacity: 5}); err == nil {
		t.Fatal("accepted SAMQ with indivisible capacity")
	}
}

func TestProtocolString(t *testing.T) {
	if Discarding.String() != "discarding" || Blocking.String() != "blocking" {
		t.Fatal("protocol names wrong")
	}
	if Protocol(9).String() != "Protocol(9)" {
		t.Fatal("unknown protocol name wrong")
	}
}

func TestOfferAndForward(t *testing.T) {
	for _, kind := range buffer.Kinds() {
		s := MustNew(cfg(kind))
		p := routed(1, 3)
		if !s.Offer(0, p) {
			t.Fatalf("%v: offer rejected on empty switch", kind)
		}
		if s.Len() != 1 {
			t.Fatalf("%v: len = %d", kind, s.Len())
		}
		grants := s.Arbitrate(nil, nil)
		if len(grants) != 1 || grants[0].In != 0 || grants[0].Out != 3 {
			t.Fatalf("%v: grants = %v", kind, grants)
		}
		if got := s.PopGrant(grants[0]); got != p {
			t.Fatalf("%v: popped %v", kind, got)
		}
		if s.Len() != 0 {
			t.Fatalf("%v: switch not empty after pop", kind)
		}
	}
}

func TestOfferFullDiscards(t *testing.T) {
	s := MustNew(Config{Ports: 2, BufferKind: buffer.FIFO, Capacity: 2, Policy: arbiter.Dumb})
	if !s.Offer(0, routed(1, 0)) || !s.Offer(0, routed(2, 0)) {
		t.Fatal("setup offers rejected")
	}
	if s.Offer(0, routed(3, 1)) {
		t.Fatal("offer accepted into full buffer")
	}
}

// TestDownstreamRoomStopsTransmission: a head whose downstream room is
// too small is withheld from arbitration.
func TestDownstreamRoomStopsTransmission(t *testing.T) {
	s := MustNew(cfg(buffer.DAMQ))
	// One downstream row of 4 registers per output, next hop = Dest.
	down := &Downstream{Room: make([]int32, 16), Base: []int32{0, 4, 8, 12}, Digit: []uint8{0, 1, 2, 3}, Classes: 1}
	s.Offer(0, routed(1, 2))
	if grants := s.Arbitrate(down, nil); len(grants) != 0 {
		t.Fatalf("grants into zero room: %v", grants)
	}
	// With room behind output 1 only, only output 1 transmits.
	s.Offer(0, routed(2, 1))
	down.Room[4+1] = 1
	grants := s.Arbitrate(down, nil)
	if len(grants) != 1 || grants[0].Out != 1 {
		t.Fatalf("grants = %v, want only output 1", grants)
	}
}

// TestDownstreamAsksNextHop: the view answers for the queue a head packet
// will join at the next switch, which its Dest names, not for the output
// its OutPort names here, and it leaves the packet untouched.
func TestDownstreamAsksNextHop(t *testing.T) {
	next := MustNew(Config{Ports: 2, BufferKind: buffer.SAMQ, Capacity: 2, Policy: arbiter.Dumb})
	room := make([]int32, 4)
	next.AttachRoom(room)
	// Output o of s feeds input o of next; next routes on Dest%2.
	down := &Downstream{Room: room, Base: []int32{0, 2}, Digit: []uint8{0, 1}, Classes: next.RoomClasses()}
	s := MustNew(Config{Ports: 2, BufferKind: buffer.SAMQ, Capacity: 2, Policy: arbiter.Dumb})

	next.Offer(0, routed(1, 0)) // next's input 0 queue 0 is now full
	blocked := &packet.Packet{ID: 2, Dest: 0, OutPort: 0, Slots: 1}
	s.Offer(0, blocked)
	if grants := s.Arbitrate(down, nil); len(grants) != 0 {
		t.Fatalf("granted into a full SAMQ queue: %v", grants)
	}
	// A head for the same output here but the other queue next passes.
	s.Offer(1, &packet.Packet{ID: 3, Dest: 1, OutPort: 0, Slots: 1})
	grants := s.Arbitrate(down, nil)
	if len(grants) != 1 || grants[0].In != 1 || blocked.OutPort != 0 {
		t.Fatalf("grants = %v, want only input 1", grants)
	}
	// Emptying next republishes its room, which unblocks the head.
	s.PopGrant(grants[0])
	next.Reset()
	if grants := s.Arbitrate(down, nil); len(grants) != 1 || grants[0].In != 0 {
		t.Fatalf("grants after downstream reset = %v, want input 0", grants)
	}
}

func TestReset(t *testing.T) {
	s := MustNew(cfg(buffer.DAMQ))
	s.Offer(0, routed(1, 1))
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("reset did not empty switch")
	}
}

func TestPopGrantPanicsOnStaleGrant(t *testing.T) {
	s := MustNew(cfg(buffer.FIFO))
	s.Offer(0, routed(1, 1))
	grants := s.Arbitrate(nil, nil)
	s.PopGrant(grants[0])
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on stale grant")
		}
	}()
	s.PopGrant(grants[0])
}

// TestMCConservation: arrivals = delivered + discarded + still buffered.
func TestMCConservation(t *testing.T) {
	for _, kind := range buffer.Kinds() {
		s := MustNew(cfg(kind))
		res := s.RunDiscarding(0.8, 5000, rng.New(1))
		inside := int64(s.Len())
		if res.Arrivals != res.Delivered+res.Discarded+inside {
			t.Fatalf("%v: %d arrivals != %d delivered + %d discarded + %d inside",
				kind, res.Arrivals, res.Delivered, res.Discarded, inside)
		}
	}
}

func TestMCDeterminism(t *testing.T) {
	a := MustNew(cfg(buffer.DAMQ)).RunDiscarding(0.7, 2000, rng.New(5))
	b := MustNew(cfg(buffer.DAMQ)).RunDiscarding(0.7, 2000, rng.New(5))
	if a != b {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// TestMCRecyclesPackets: RunDiscarding hands delivered and discarded
// packets back to its allocator, so its allocations stay bounded by the
// packets inside the switch instead of growing with the cycle count.
func TestMCRecyclesPackets(t *testing.T) {
	for _, kind := range buffer.Kinds() {
		allocs := testing.AllocsPerRun(1, func() {
			MustNew(cfg(kind)).RunDiscarding(0.9, 20000, rng.New(3))
		})
		if allocs > 200 {
			t.Errorf("%v: RunDiscarding over 20000 cycles allocates %.0f objects, want <= 200", kind, allocs)
		}
	}
}

// TestMCOrderingMatchesPaper: at heavy load with equal storage, the
// discard ranking must be DAMQ < SAFC <= SAMQ < FIFO (Table 2's ordering).
func TestMCOrderingMatchesPaper(t *testing.T) {
	frac := map[buffer.Kind]float64{}
	for _, kind := range buffer.Kinds() {
		s := MustNew(cfg(kind))
		frac[kind] = s.RunDiscarding(0.9, 200000, rng.New(7)).DiscardFraction()
	}
	if !(frac[buffer.DAMQ] < frac[buffer.SAFC]) {
		t.Errorf("DAMQ %.4f !< SAFC %.4f", frac[buffer.DAMQ], frac[buffer.SAFC])
	}
	if !(frac[buffer.SAFC] <= frac[buffer.SAMQ]+0.01) {
		t.Errorf("SAFC %.4f !<= SAMQ %.4f", frac[buffer.SAFC], frac[buffer.SAMQ])
	}
	if !(frac[buffer.DAMQ] < frac[buffer.FIFO]) {
		t.Errorf("DAMQ %.4f !< FIFO %.4f", frac[buffer.DAMQ], frac[buffer.FIFO])
	}
}

func TestMCZeroLoad(t *testing.T) {
	s := MustNew(cfg(buffer.FIFO))
	res := s.RunDiscarding(0, 100, rng.New(1))
	if res.Arrivals != 0 || res.Discarded != 0 || res.Delivered != 0 {
		t.Fatalf("zero-load run moved packets: %+v", res)
	}
	if res.DiscardFraction() != 0 {
		t.Fatal("discard fraction of empty run should be 0")
	}
}
