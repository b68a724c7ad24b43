package buffer

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"damq/internal/packet"
	"damq/internal/rng"
)

// roomConfigs are the buffers the room property runs over: every kind,
// with 16 slots so 1-4-slot packets fit even SAMQ's per-queue budget,
// and threshold knobs whose limits fall between integers.
func roomConfigs() []Config {
	var cfgs []Config
	for _, k := range AllKinds() {
		cfg := Config{Kind: k, NumOutputs: 4, Capacity: 16}
		switch k {
		case DT:
			cfg.Sharing.Alpha = 0.5
			cfgs = append(cfgs, cfg)
			cfg.Sharing.Alpha = 1.5
		case FB:
			cfg.Sharing = Sharing{Classes: 2}
			cfgs = append(cfgs, cfg)
			cfg.Sharing = Sharing{Classes: 4, Alpha: 0.75}
		case BSHARE:
			cfg.Sharing = Sharing{DelayTarget: 2, Alpha: 0.7}
			cfgs = append(cfgs, cfg)
			cfg.Sharing = Sharing{DelayTarget: 5}
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// roomCoverage records which hard states a random walk reached.
type roomCoverage struct {
	multiSlot, quarantined, classes, agedHead, zeroRoom bool
}

// walkRoom drives a buffer built from cfg, with a room window attached,
// through a seeded random sequence of offers, pops, ticks and stuck
// slots, and calls check after every step at the clock edge: a pop must
// leave the row byte-for-byte as it was (the latch), and is followed by
// the PublishRoom that latches its room before the check.
func walkRoom(t *testing.T, cfg Config, seed uint64, check func(c *Composed, row []int32)) roomCoverage {
	t.Helper()
	c := MustNew(cfg)
	row := make([]int32, c.NumOutputs()*c.RoomClasses())
	latched := make([]int32, len(row))
	c.AttachRoom(row)
	pooled := KindSharesPool(cfg.Kind)
	r := rng.New(seed)
	var cov roomCoverage
	id := uint64(0)
	for step := 0; step < 400; step++ {
		switch op := r.Intn(20); {
		case op < 10:
			id++
			c.Offer(&packet.Packet{ID: id, OutPort: r.Intn(c.NumOutputs()), Slots: 1 + r.Intn(4)})
		case op < 15:
			copy(latched, row)
			c.Pop(r.Intn(c.NumOutputs()))
			if !slices.Equal(row, latched) {
				t.Fatalf("seed %d step %d: Pop rewrote the latched room %v to %v", seed, step, latched, row)
			}
			c.PublishRoom()
		case op < 19:
			c.Tick()
		case pooled:
			c.QuarantineSlot(r.Intn(cfg.Capacity))
		}
		check(c, row)

		sp := &c.g.pool
		for q := 0; q < sp.NumQueues(); q++ {
			cov.multiSlot = cov.multiSlot || sp.QueueSlots(q) > sp.QueueLen(q)
			cov.agedHead = cov.agedHead || (c.g.rule.kind == bshare && sp.HeadAge(q) > c.g.rule.target)
		}
		cov.quarantined = cov.quarantined || sp.Quarantined() > 0
		busy := 0
		for _, n := range c.g.classSlots {
			if n > 0 {
				busy++
			}
		}
		cov.classes = cov.classes || busy > 1
		for _, v := range row {
			cov.zeroRoom = cov.zeroRoom || (v == 0 && sp.FreeSlots() > 0)
		}
	}
	return cov
}

// roomMismatch returns the first (output, class, slot count) on which
// row disagrees with CanAcceptOut, or "" when it agrees everywhere.
func roomMismatch(c *Composed, row []int32) string {
	classes := c.RoomClasses()
	for k := 0; k < classes; k++ {
		p := &packet.Packet{ID: 1}
		for Class(p, classes) != k {
			p.ID++
		}
		for out := 0; out < c.NumOutputs(); out++ {
			room := row[out*classes+k]
			for p.Slots = 1; p.Slots <= c.Capacity()+1; p.Slots++ {
				if want := c.CanAcceptOut(p, out); want != (p.Slots <= int(room)) {
					return fmt.Sprintf("out %d class %d slots %d: CanAcceptOut %v, room %d (free %d)",
						out, k, p.Slots, want, room, c.Free())
				}
			}
		}
	}
	return ""
}

// TestRoomMatchesCanAcceptOut is the published room's contract: at every
// clock edge of random walks over every kind — multi-slot packets, stuck
// slots, FB classes, BSHARE heads older than the delay target,
// thresholds between integers — a packet fits exactly when its slot
// count is at most the room register of its output and class; between a
// pop and its PublishRoom the register holds the room from before.
func TestRoomMatchesCanAcceptOut(t *testing.T) {
	for _, cfg := range roomConfigs() {
		name := cfg.Kind.String()
		if sh := cfg.Sharing; sh != (Sharing{}) {
			name += fmt.Sprintf("/alpha=%g/classes=%d/target=%d", sh.Alpha, sh.Classes, sh.DelayTarget)
		}
		t.Run(name, func(t *testing.T) {
			var cov roomCoverage
			for seed := uint64(1); seed <= 8; seed++ {
				got := walkRoom(t, cfg, seed, func(c *Composed, row []int32) {
					if msg := roomMismatch(c, row); msg != "" {
						t.Fatalf("seed %d: %s", seed, msg)
					}
				})
				cov.multiSlot = cov.multiSlot || got.multiSlot
				cov.quarantined = cov.quarantined || got.quarantined
				cov.classes = cov.classes || got.classes
				cov.agedHead = cov.agedHead || got.agedHead
				cov.zeroRoom = cov.zeroRoom || got.zeroRoom
			}
			pooled := KindSharesPool(cfg.Kind)
			switch {
			case !cov.multiSlot:
				t.Error("no state held a multi-slot packet")
			case pooled && !cov.quarantined:
				t.Error("no state had a quarantined slot")
			case cfg.Kind == FB && !cov.classes:
				t.Error("no state held two FB classes at once")
			case cfg.Kind == BSHARE && !cov.agedHead:
				t.Error("no BSHARE head outlived the delay target")
			case cfg.Kind != DAMQ && cfg.Kind != DAFC && cfg.Kind != FIFO && !cov.zeroRoom:
				t.Error("no state refused every packet while slots were free")
			}
		})
	}
}

// TestRoomCatchesMutant seeds a plausible error into DT's room — the
// threshold rounded to nearest rather than floored — and requires the
// random walk of TestRoomMatchesCanAcceptOut to expose it.
func TestRoomCatchesMutant(t *testing.T) {
	cfg := Config{Kind: DT, NumOutputs: 4, Capacity: 16, Sharing: Sharing{Alpha: 0.5}}
	caught := false
	walkRoom(t, cfg, 1, func(c *Composed, row []int32) {
		sp := &c.g.pool
		limit := c.g.rule.alpha * float64(sp.FreeSlots())
		mutant := make([]int32, len(row))
		for o := range mutant {
			mutant[o] = max(0, min(sp.freeCount, int32(math.Round(limit))-int32(sp.QueueSlots(o))))
		}
		caught = caught || roomMismatch(c, mutant) != ""
	})
	if !caught {
		t.Fatal("the rounded DT room passed every state")
	}
}

// TestAttachRoomRejectsSharedPool: a view of a switch-wide pool cannot
// publish room, since its admission depends on the other ports.
func TestAttachRoomRejectsSharedPool(t *testing.T) {
	views, err := NewSharedGroup(Config{Kind: DAMQ, NumOutputs: 2, Capacity: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AttachRoom accepted a shared-pool view")
		}
	}()
	views[0].AttachRoom(make([]int32, 2))
}
