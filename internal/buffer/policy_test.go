package buffer

import (
	"fmt"
	"testing"

	"damq/internal/packet"
)

// TestDynThresholdAdmission pins the DT rule: a queue may grow to at
// most alpha times the current free space, so the threshold tightens as
// the pool fills.
func TestDynThresholdAdmission(t *testing.T) {
	b := MustNew(Config{Kind: DT, NumOutputs: 2, Capacity: 8, Sharing: Sharing{Alpha: 1}})
	// Empty pool: queue 0 may grow while qSlots+1 <= free.
	for i := uint64(1); i <= 4; i++ {
		if err := b.Accept(mk(i, 0, 1)); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	// qSlots(0)=4, free=4: 4+1 > 1.0*4, the hot queue is cut off...
	if b.CanAccept(mk(9, 0, 1)) {
		t.Fatal("DT admitted past alpha*free on the hot queue")
	}
	// ...while the idle queue still gets in (1 <= 4).
	if !b.CanAccept(mk(10, 1, 1)) {
		t.Fatal("DT refused an idle queue with free space in reserve")
	}
	// A DAMQ at the same occupancy would admit the hot packet: that gap
	// is precisely the admission-control reserve.
	d := NewDAMQ(2, 8)
	for i := uint64(1); i <= 4; i++ {
		if err := d.Accept(mk(i, 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if !d.CanAccept(mk(9, 0, 1)) {
		t.Fatal("DAMQ refused a packet that fits")
	}
}

// TestFBReserveSurvivesOverload pins FB's guarantee: each class keeps a
// reserved quota other classes cannot consume.
func TestFBReserveSurvivesOverload(t *testing.T) {
	// 16 slots, 2 classes: reserve = 16/2/2 = 4 per class.
	b := MustNew(Config{Kind: FB, NumOutputs: 2, Capacity: 16, Sharing: Sharing{Alpha: 1, Classes: 2}})
	// Find packet IDs in each class (the mapping is the exported Class).
	idOfClass := func(c int) uint64 {
		for id := uint64(1); ; id++ {
			if Class(mk(id, 0, 1), 2) == c {
				return id
			}
		}
	}
	// Stuff class 0 until it is refused.
	var nextID uint64 = 1
	accepted := 0
	for ; accepted < 16; nextID++ {
		p := mk(nextID, int(nextID)%2, 1)
		if Class(p, 2) != 0 {
			continue
		}
		if !b.CanAccept(p) {
			break
		}
		if err := b.Accept(p); err != nil {
			t.Fatal(err)
		}
		accepted++
	}
	if accepted == 0 || accepted == 16 {
		t.Fatalf("class 0 accepted %d packets; want a cap strictly inside (0,16)", accepted)
	}
	// Class 1's reserve is untouched: its first packets still enter.
	p := mk(idOfClass(1), 0, 1)
	if !b.CanAccept(p) {
		t.Fatal("FB refused class 1 its reserved quota under class-0 overload")
	}
}

// TestBShareShrinksStalledQueue pins the delay response: once a queue's
// head has waited past the target, its allowance shrinks with the
// overshoot, while fresh queues keep the full dynamic threshold.
func TestBShareShrinksStalledQueue(t *testing.T) {
	b := MustNew(Config{Kind: BSHARE, NumOutputs: 2, Capacity: 12,
		Sharing: Sharing{Alpha: 1, DelayTarget: 4}})
	if err := b.Accept(mk(1, 0, 2)); err != nil {
		t.Fatal(err)
	}
	// Fresh head: qSlots(0)=2, free=10 — more fits.
	if !b.CanAccept(mk(2, 0, 2)) {
		t.Fatal("BSHARE refused a fresh queue under threshold")
	}
	// Stall the head far past the 4-tick target: allowance collapses
	// toward the one-packet reserve, so the same offer is now refused.
	for i := 0; i < 40; i++ {
		b.Tick()
	}
	if b.CanAccept(mk(2, 0, 2)) {
		t.Fatal("BSHARE kept admitting behind a stalled head")
	}
	// The other, empty queue is unaffected (HeadAge 0).
	if !b.CanAccept(mk(3, 1, 2)) {
		t.Fatal("BSHARE refused an empty queue")
	}
	// Draining the stalled head restores the allowance.
	if p := b.Pop(0); p == nil || p.ID != 1 {
		t.Fatalf("Pop = %v, want pkt 1", p)
	}
	if !b.CanAccept(mk(2, 0, 2)) {
		t.Fatal("BSHARE still refusing after the stalled head drained")
	}
}

// admitSpec is each admission rule written as its inequality, from the
// buffer's config and its pool's registers alone: the oracle that
// CanAcceptOut, which decides through the rule's solved room, must
// match. Class tallies are recounted from the pool's slot owners rather
// than read from the group's running tally.
func admitSpec(cfg Config, c *Composed, p *packet.Packet, out int) bool {
	k := cfg.Kind
	if (k == SAMQ || k == SAFC || KindModern(k)) && (out < 0 || out >= cfg.NumOutputs) {
		return false
	}
	sp := c.Pool()
	free := sp.FreeSlots()
	if p.Slots > free {
		return false
	}
	q := out
	if k == FIFO {
		q = 0
	}
	alpha := cfg.Sharing.alpha()
	switch k {
	case SAMQ, SAFC:
		return sp.QueueSlots(q)+p.Slots <= cfg.Capacity/cfg.NumOutputs
	case DT:
		return float64(sp.QueueSlots(q)+p.Slots) <= alpha*float64(free)
	case FB:
		classes := cfg.Sharing.classes()
		class := Class(p, classes)
		after := p.Slots
		for _, o := range sp.owner {
			if o != nil && Class(o, classes) == class {
				after += o.Slots
			}
		}
		reserve := cfg.Capacity / classes / 2
		if after <= reserve {
			return true
		}
		return float64(after) <= float64(reserve)+alpha/float64(int(1)<<class)*float64(free)
	case BSHARE:
		limit := alpha * float64(free)
		target := cfg.Sharing.delayTarget()
		if age := sp.HeadAge(q); age > target {
			limit = max(limit*float64(target)/float64(age), 1)
		}
		return float64(sp.QueueSlots(q)+p.Slots) <= limit
	default: // FIFO, DAMQ, DAFC: complete sharing
		return true
	}
}

// TestAdmissionMatchesSpec checks CanAcceptOut against admitSpec on the
// random states of TestRoomMatchesCanAcceptOut — every kind, multi-slot
// packets, stuck slots, FB classes, aged BSHARE heads, and thresholds
// that fall between integers — for every output (and one past each end),
// every FB class, and every slot count up to one past the capacity.
func TestAdmissionMatchesSpec(t *testing.T) {
	for _, cfg := range roomConfigs() {
		name := cfg.Kind.String()
		if sh := cfg.Sharing; sh != (Sharing{}) {
			name += fmt.Sprintf("/alpha=%g/classes=%d/target=%d", sh.Alpha, sh.Classes, sh.DelayTarget)
		}
		t.Run(name, func(t *testing.T) {
			classes := 1
			if cfg.Kind == FB {
				classes = cfg.Sharing.classes()
			}
			for seed := uint64(1); seed <= 8; seed++ {
				walkRoom(t, cfg, seed, func(c *Composed, _ []int32) {
					for class := 0; class < classes; class++ {
						p := &packet.Packet{ID: 1}
						for Class(p, classes) != class {
							p.ID++
						}
						for out := -1; out <= cfg.NumOutputs; out++ {
							for p.Slots = 1; p.Slots <= cfg.Capacity+1; p.Slots++ {
								if got, want := c.CanAcceptOut(p, out), admitSpec(cfg, c, p, out); got != want {
									t.Fatalf("seed %d out %d class %d slots %d: CanAcceptOut %v, spec %v (free %d)",
										seed, out, class, p.Slots, got, want, c.Free())
								}
							}
						}
					}
				})
			}
		})
	}
}

// TestSharingValidation pins the knob rules: parameters set on a kind
// that does not read them are rejected, with the policy named.
func TestSharingValidation(t *testing.T) {
	bad := []Config{
		{Kind: DAMQ, NumOutputs: 2, Capacity: 4, Sharing: Sharing{Alpha: 2}},
		{Kind: FIFO, NumOutputs: 2, Capacity: 4, Sharing: Sharing{Classes: 2}},
		{Kind: DT, NumOutputs: 2, Capacity: 4, Sharing: Sharing{Classes: 2}},
		{Kind: DT, NumOutputs: 2, Capacity: 4, Sharing: Sharing{DelayTarget: 8}},
		{Kind: FB, NumOutputs: 2, Capacity: 4, Sharing: Sharing{DelayTarget: 8}},
		{Kind: FB, NumOutputs: 2, Capacity: 4, Sharing: Sharing{Classes: 5}}, // classes > capacity/2: no reserve
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("%v with sharing %+v: accepted, want error", cfg.Kind, cfg.Sharing)
		}
	}
	good := []Config{
		{Kind: DT, NumOutputs: 2, Capacity: 4, Sharing: Sharing{Alpha: 0.5}},
		{Kind: FB, NumOutputs: 2, Capacity: 8, Sharing: Sharing{Alpha: 2, Classes: 2}},
		{Kind: BSHARE, NumOutputs: 2, Capacity: 4, Sharing: Sharing{DelayTarget: 32}},
		{Kind: BSHARE, NumOutputs: 2, Capacity: 4}, // all defaults
	}
	for _, cfg := range good {
		if _, err := New(cfg); err != nil {
			t.Errorf("%v with sharing %+v: %v", cfg.Kind, cfg.Sharing, err)
		}
	}
}

// TestClassStableAndUniform: the class mapping depends only on packet
// identity (so it is worker-count independent) and spreads consecutive
// IDs across classes rather than striping them.
func TestClassStableAndUniform(t *testing.T) {
	const classes = 4
	counts := make([]int, classes)
	for id := uint64(0); id < 4096; id++ {
		c := Class(mk(id, 0, 1), classes)
		if c < 0 || c >= classes {
			t.Fatalf("Class(%d) = %d out of range", id, c)
		}
		counts[c]++
	}
	for c, n := range counts {
		if n < 4096/classes/2 || n > 4096/classes*2 {
			t.Fatalf("class %d holds %d of 4096 ids — mapping is badly skewed: %v", c, n, counts)
		}
	}
	if Class(mk(7, 0, 1), 1) != 0 {
		t.Fatal("single-class mapping must be 0")
	}
}

// BenchmarkPolicyAdmit measures the admission hot path of each 2026
// policy — one Accept/Pop round trip through CanAccept, the threshold
// arithmetic, and the slot pool — against the DAMQ baseline. The CI
// benchmark gate pins all of these at 0 allocs/op: admission decisions
// must stay pure arithmetic over pool state.
func BenchmarkPolicyAdmit(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"DAMQ", Config{Kind: DAMQ, NumOutputs: 4, Capacity: 16}},
		{"DT", Config{Kind: DT, NumOutputs: 4, Capacity: 16}},
		{"FB", Config{Kind: FB, NumOutputs: 4, Capacity: 16, Sharing: Sharing{Classes: 4}}},
		{"BSHARE", Config{Kind: BSHARE, NumOutputs: 4, Capacity: 16}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			buf := MustNew(tc.cfg)
			// Half-fill the pool so every policy evaluates a contended
			// threshold, not the trivial empty case.
			for i := uint64(1); i <= 8; i++ {
				if err := buf.Accept(mk(i, int(i)%4, 1)); err != nil {
					b.Fatal(err)
				}
			}
			p := mk(100, 2, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !buf.CanAccept(p) {
					b.Fatal("refused in steady state")
				}
				if err := buf.Accept(p); err != nil {
					b.Fatal(err)
				}
				if buf.Pop(2) == nil {
					b.Fatal("lost packet")
				}
			}
		})
	}
}
