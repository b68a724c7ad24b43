package buffer

import (
	"fmt"

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

// SlotPoolState is the serializable state of one SlotPool. Owner maps
// each slot to an index into Packets (-1 for none), so the caller
// serializes packet bodies once each, in slot order of their first
// slots.
type SlotPoolState struct {
	Next      []int32
	Owner     []int32
	FreeHead  int32
	FreeTail  int32
	FreeCount int
	QHead     []int32
	QTail     []int32
	QPkts     []int
	QSlots    []int
	Quar      []uint8 // nil when no quarantine state exists
	QuarCount int
	HasClock  bool
	Stamp     []int64
	Now       int64
	Packets   []*packet.Packet
}

// SaveState captures the pool's register state. All slices are copies;
// the packet pointers are shared (checkpointing serializes their fields,
// it does not mutate them).
func (sp *SlotPool) SaveState() *SlotPoolState {
	nq := sp.NumQueues()
	st := &SlotPoolState{
		Next:      append([]int32(nil), sp.next...),
		Owner:     make([]int32, len(sp.next)),
		FreeHead:  sp.freeHead,
		FreeTail:  sp.freeTail,
		FreeCount: int(sp.freeCount),
		QHead:     make([]int32, nq),
		QTail:     make([]int32, nq),
		QPkts:     make([]int, nq),
		QSlots:    make([]int, nq),
		QuarCount: int(sp.quarCount),
		HasClock:  sp.stamp != nil,
		Now:       sp.now,
	}
	for q := 0; q < nq; q++ {
		r := sp.queue(q)
		st.QHead[q], st.QTail[q] = r[regHead], r[regTail]
		st.QPkts[q], st.QSlots[q] = int(r[regPkts]), int(r[regSlots])
	}
	if sp.quar != nil {
		st.Quar = append([]uint8(nil), sp.quar...)
	}
	if sp.stamp != nil {
		st.Stamp = append([]int64(nil), sp.stamp...)
	}
	for s, p := range sp.owner {
		if p == nil {
			st.Owner[s] = -1
			continue
		}
		st.Owner[s] = int32(len(st.Packets))
		st.Packets = append(st.Packets, p)
	}
	return st
}

// LoadState overwrites the pool's registers with a previously saved
// state. It validates every index against the pool's construction-time
// geometry (which the caller has already rebuilt from the simulation
// config) so that the structural audit that follows — CheckInvariants,
// via ResyncAfterRestore — cannot be driven out of bounds by a corrupted
// stream. Any mismatch is an error; the pool is unchanged on failure
// only in the sense that the caller must treat it as dead.
func (sp *SlotPool) LoadState(st *SlotPoolState) error {
	capacity, nq := len(sp.next), sp.NumQueues()
	if len(st.Next) != capacity || len(st.Owner) != capacity {
		return fmt.Errorf("slotpool: state for %d slots loaded into %d-slot pool", len(st.Next), capacity)
	}
	if len(st.QHead) != nq || len(st.QTail) != nq || len(st.QPkts) != nq || len(st.QSlots) != nq {
		return fmt.Errorf("slotpool: state for %d queues loaded into %d-queue pool", len(st.QHead), nq)
	}
	if st.HasClock != (sp.stamp != nil) {
		return fmt.Errorf("slotpool: clock presence mismatch (state %v, pool %v)", st.HasClock, sp.stamp != nil)
	}
	if st.HasClock && len(st.Stamp) != capacity {
		return fmt.Errorf("slotpool: %d enqueue stamps for %d slots", len(st.Stamp), capacity)
	}
	if st.Quar != nil && len(st.Quar) != capacity {
		return fmt.Errorf("slotpool: %d quarantine bytes for %d slots", len(st.Quar), capacity)
	}
	inRange := func(s int32) bool { return s == nilSlot || (s >= 0 && int(s) < capacity) }
	for _, s := range st.Next {
		if !inRange(s) {
			return fmt.Errorf("slotpool: next register points at invalid slot %d", s)
		}
	}
	for q := 0; q < nq; q++ {
		if !inRange(st.QHead[q]) || !inRange(st.QTail[q]) {
			return fmt.Errorf("slotpool: queue %d head/tail registers out of range", q)
		}
		// Every queued packet holds a slot, so neither counter can exceed
		// the capacity; the bound also keeps them exact in the int32
		// registers.
		if st.QPkts[q] < 0 || st.QPkts[q] > capacity || st.QSlots[q] < 0 || st.QSlots[q] > capacity {
			return fmt.Errorf("slotpool: queue %d has impossible counters (%d pkts, %d slots)",
				q, st.QPkts[q], st.QSlots[q])
		}
	}
	if !inRange(st.FreeHead) || !inRange(st.FreeTail) ||
		st.FreeCount < 0 || st.FreeCount > capacity {
		return fmt.Errorf("slotpool: free list registers out of range")
	}
	if st.QuarCount < 0 || st.QuarCount > capacity {
		return fmt.Errorf("slotpool: quarantine count %d out of range", st.QuarCount)
	}
	for s, v := range st.Quar {
		if v > slotQuarantined {
			return fmt.Errorf("slotpool: slot %d has unknown quarantine state %d", s, v)
		}
	}
	seen := 0
	for s, idx := range st.Owner {
		if idx == -1 {
			continue
		}
		// Owner indices are assigned in slot order by SaveState, so a
		// well-formed state references Packets exactly once each, in
		// order.
		if int(idx) != seen || seen >= len(st.Packets) || st.Packets[seen] == nil {
			return fmt.Errorf("slotpool: slot %d owner index %d breaks packet order", s, idx)
		}
		seen++
	}
	if seen != len(st.Packets) {
		return fmt.Errorf("slotpool: %d owner slots for %d packets", seen, len(st.Packets))
	}
	// The free list is the one chain CheckInvariants does not tie to a
	// tail register; verify its termination, length, and tail here (all
	// indices are validated above, and the step bound kills cycles).
	last, steps := nilSlot, 0
	for s := st.FreeHead; s != nilSlot; s = st.Next[s] {
		if steps++; steps > capacity {
			return fmt.Errorf("slotpool: free list is cyclic")
		}
		last = s
	}
	if steps != st.FreeCount || last != st.FreeTail {
		return fmt.Errorf("slotpool: free list walk (%d slots, tail %d) disagrees with registers (%d, %d)",
			steps, last, st.FreeCount, st.FreeTail)
	}
	copy(sp.next, st.Next)
	for q := 0; q < nq; q++ {
		*sp.queue(q) = [queueRegs]int32{
			regHead: st.QHead[q], regTail: st.QTail[q],
			regPkts: int32(st.QPkts[q]), regSlots: int32(st.QSlots[q]),
		}
	}
	sp.freeHead, sp.freeTail, sp.freeCount = st.FreeHead, st.FreeTail, int32(st.FreeCount)
	sp.quar, sp.quarCount = nil, int32(st.QuarCount)
	if st.Quar != nil {
		sp.quar = append([]uint8(nil), st.Quar...)
	}
	if st.HasClock {
		copy(sp.stamp, st.Stamp)
	}
	sp.now = st.Now
	for s := range sp.owner {
		if st.Owner[s] == -1 {
			sp.owner[s] = nil
			continue
		}
		sp.owner[s] = st.Packets[st.Owner[s]]
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
