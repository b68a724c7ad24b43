package buffer

import (
	"bytes"
	"fmt"

	"damq/internal/checkpoint"
	"damq/internal/packet"
)

// This file is the buffer half of the simulator checkpoint codec
// (DESIGN.md §13): the slot pool's exact register state — linked free
// list, per-slot next pointers, queue head/tail registers, quarantine
// bytes, and the BShare clock — is what Restore must reproduce, because
// slot assignment order is observable (quarantine schedules target slot
// indices and delay-driven admission reads enqueue stamps). The derived
// per-view and per-group counters and the published admission room of
// the composed buffers are not serialized; ResyncAfterRestore audits the
// loaded pool with CheckInvariants and then recomputes them.

// Walk walks the pool's registers through a checkpoint codec, in stream
// order: the next pointers; the owner map (per slot, -1 or the index of
// the packet whose first slot it is, counted in slot order); the free
// list's head, tail and count; each queue's head, tail, packet and slot
// registers, one array per register; the quarantine bytes and count;
// the enqueue stamps and tick of the BShare clock; and last the packets,
// each once, in slot order of their first slots.
//
// Decoding reads into the registers, then validates every index against
// the pool's construction-time geometry, which the caller has rebuilt
// from its config, and runs check on each packet. The structural audit
// that follows — CheckInvariants, via ResyncAfterRestore — therefore
// cannot be driven out of bounds by a corrupted stream. After an error
// the pool is dead and the caller discards it. A stream error stays on
// c.
func (sp *SlotPool) Walk(c *checkpoint.Codec, check func(*packet.Packet) error) error {
	capacity, nq := len(sp.next), sp.NumQueues()
	// count walks a count register at the stream's int64 width. No count
	// a pool holds can exceed its capacity, and the bound keeps it exact
	// in int32; the first one out of range is reported with the other
	// checks.
	var bad error
	count := func(r *int32, what string) {
		v := int64(*r)
		if c.I64(&v); (v < 0 || v > int64(capacity)) && bad == nil {
			bad = fmt.Errorf("slotpool: %s %d out of range [0, %d]", what, v, capacity)
		}
		*r = int32(v)
	}
	if n := c.FixedLen(capacity); n != capacity {
		return fmt.Errorf("slotpool: state for %d slots loaded into %d-slot pool", n, capacity)
	}
	for s := range sp.next {
		c.I32(&sp.next[s])
	}
	if n := c.FixedLen(capacity); n != capacity {
		return fmt.Errorf("slotpool: owner map for %d slots loaded into %d-slot pool", n, capacity)
	}
	owners := 0
	for s, p := range sp.owner {
		idx := int32(-1)
		if p != nil {
			idx = int32(owners)
		}
		if c.I32(&idx); c.Decoding() {
			// A well-formed stream names each packet once, in order.
			// Its body follows the registers.
			switch idx {
			case -1:
				sp.owner[s] = nil
			case int32(owners):
				sp.owner[s] = new(packet.Packet)
			default:
				return fmt.Errorf("slotpool: slot %d owner index %d breaks packet order", s, idx)
			}
		}
		if sp.owner[s] != nil {
			owners++
		}
	}
	c.I32(&sp.freeHead)
	c.I32(&sp.freeTail)
	count(&sp.freeCount, "free count")
	for reg := range queueRegs {
		if n := c.FixedLen(nq); n != nq {
			return fmt.Errorf("slotpool: state for %d queues loaded into %d-queue pool", n, nq)
		}
		for q := 0; q < nq; q++ {
			if r := &sp.queues[q*queueRegs+reg]; reg == regHead || reg == regTail {
				c.I32(r)
			} else {
				count(r, "queue counter")
			}
		}
	}
	hasQuar := sp.quar != nil
	if c.Bool(&hasQuar); hasQuar {
		quar := sp.quar
		if c.Bytes(&quar); c.Decoding() && c.Err() == nil {
			if len(quar) != capacity {
				return fmt.Errorf("slotpool: %d quarantine bytes for %d slots", len(quar), capacity)
			}
			sp.quar = bytes.Clone(quar)
		}
	} else {
		sp.quar = nil
	}
	count(&sp.quarCount, "quarantine count")
	hasClock := sp.stamp != nil
	if c.Bool(&hasClock); hasClock != (sp.stamp != nil) {
		return fmt.Errorf("slotpool: clock presence mismatch (state %v, pool %v)", hasClock, sp.stamp != nil)
	}
	if hasClock {
		if n := c.FixedLen(capacity); n != capacity {
			return fmt.Errorf("slotpool: %d enqueue stamps for %d slots", n, capacity)
		}
		for s := range sp.stamp {
			c.I64(&sp.stamp[s])
		}
		c.I64(&sp.now)
	}
	if n := c.FixedLen(owners); n != owners {
		return fmt.Errorf("slotpool: %d owner slots for %d packets", owners, n)
	}
	for _, p := range sp.owner {
		if p != nil {
			p.Walk(c)
		}
	}
	if !c.Decoding() || c.Err() != nil {
		return nil
	}
	if bad != nil {
		return bad
	}
	inRange := func(s int32) bool { return s == nilSlot || (s >= 0 && int(s) < capacity) }
	for _, s := range sp.next {
		if !inRange(s) {
			return fmt.Errorf("slotpool: next register points at invalid slot %d", s)
		}
	}
	for q := 0; q < nq; q++ {
		if r := sp.queue(q); !inRange(r[regHead]) || !inRange(r[regTail]) {
			return fmt.Errorf("slotpool: queue %d head/tail registers out of range", q)
		}
	}
	if !inRange(sp.freeHead) || !inRange(sp.freeTail) {
		return fmt.Errorf("slotpool: free list registers out of range")
	}
	for s, v := range sp.quar {
		if v > slotQuarantined {
			return fmt.Errorf("slotpool: slot %d has unknown quarantine state %d", s, v)
		}
	}
	for _, p := range sp.owner {
		if p == nil {
			continue
		}
		if err := check(p); err != nil {
			return err
		}
	}
	// The free list is the one chain CheckInvariants does not tie to a
	// tail register; verify its termination, length, and tail here (all
	// indices are validated above, and the step bound kills cycles).
	last, steps := nilSlot, 0
	for s := sp.freeHead; s != nilSlot; s = sp.next[s] {
		if steps++; steps > capacity {
			return fmt.Errorf("slotpool: free list is cyclic")
		}
		last = s
	}
	if steps != int(sp.freeCount) || last != sp.freeTail {
		return fmt.Errorf("slotpool: free list walk (%d slots, tail %d) disagrees with registers (%d, %d)",
			steps, last, sp.freeCount, sp.freeTail)
	}
	return nil
}

// ResyncAfterRestore recomputes the derived state of the views over one
// freshly loaded storage group — per-view packet counts, for class-aware
// policies the pool-wide per-class slot tally, and any attached room
// window — after auditing the pool with CheckInvariants. All of views
// must share one group: pass one per-port buffer alone, or every view of
// a shared pool together. The audit runs before any chain walk that
// rebuilds class tallies, so a corrupted stream fails with an error
// instead of looping.
func ResyncAfterRestore(views []*Composed) error {
	if len(views) == 0 {
		return nil
	}
	g := views[0].g
	for _, c := range views[1:] {
		if c.g != g {
			return fmt.Errorf("buffer: restored views do not share one storage group")
		}
	}
	if err := g.pool.CheckInvariants(g.expectOut); err != nil {
		return err
	}
	for _, c := range views {
		qn := c.numOutputs
		if c.single {
			qn = 1
		}
		n := 0
		for q := c.qBase; q < c.qBase+qn; q++ {
			n += g.pool.QueueLen(q)
		}
		c.pkts = n
	}
	if g.classSlots != nil {
		for i := range g.classSlots {
			g.classSlots[i] = 0
		}
		for q := 0; q < g.pool.NumQueues(); q++ {
			for s := g.pool.queue(q)[regHead]; s != nilSlot; s = g.pool.next[s] {
				if p := g.pool.owner[s]; p != nil {
					g.classSlots[classOf(p, g.rule.classes)] += p.Slots
				}
			}
		}
	}
	for _, c := range views {
		c.PublishRoom()
	}
	return nil
}
