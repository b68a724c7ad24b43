package buffer

import (
	"fmt"
	"strings"

	"damq/internal/packet"
)

// SlotPool is the dynamically allocated slot pool of Tamir & Frazier —
// the storage half of every buffer kind in this package. It is
// deliberately implemented the way the hardware works rather than with
// Go slices:
//
//   - storage is a pool of fixed-size slots;
//   - every slot has a pointer register (next) naming the next slot of its
//     linked list;
//   - one linked list per queue holds that queue's packets in FIFO order,
//     plus one list of free slots;
//   - per-list head and tail registers locate the first and last slot.
//
// A packet occupying k slots is stored in k slots chained through their
// pointer registers; the last slot of a packet chains to the first slot of
// the next packet in the same queue, exactly as in the chip, so a queue is
// one continuous linked list of slots. Any free slot can serve any packet
// for any queue — this dynamic allocation is what distinguishes the pool
// from the statically partitioned SAMQ/SAFC admission policies layered on
// top of it.
//
// Queues are anonymous indices: a per-port buffer maps output ports to
// queues one-to-one, the switch-wide shared pool maps (input, output)
// pairs to queues, and a FIFO uses a single queue. That mapping lives in
// the composed Buffer, not here.
type SlotPool struct {
	// The scalar registers come first, so an admission check reads the
	// free count from the same cache line as the view and rule before it.
	freeCount int32
	freeHead  int32
	freeTail  int32
	quarCount int32

	// The register file: next is the per-slot pointer register, queues
	// holds queueRegs registers per queue (head, tail, packet count, slot
	// count) so one queue's registers share a cache line. Both are carved
	// from one backing array, and their lengths are the pool's capacity
	// and queue count.
	next   []int32
	queues []int32
	owner  []*packet.Packet // packet whose *first* slot this is; nil for continuation slots

	// Quarantine state, nil until the first QuarantineSlot call so the
	// fault-free pool pays nothing beyond one nil check in giveFree.
	// A quarantined slot is on no list: the pool's capacity shrinks
	// instead of a dead pointer register corrupting a linked list.
	quar []uint8

	// Clock state for delay-driven admission (BShare): stamp records the
	// pool tick at which each packet's first slot was enqueued. nil unless
	// EnableClock was called, so clockless kinds pay one nil check in Push.
	stamp []int64
	now   int64
}

const nilSlot = int32(-1)

// Offsets of one queue's registers within SlotPool.queues.
const (
	regHead  = iota // first slot of the queue
	regTail         // last slot of the queue
	regPkts         // packets in the queue
	regSlots        // slots held by the queue
	queueRegs
)

// Quarantine slot states (entries of quar).
const (
	slotHealthy     uint8 = iota
	slotQuarPending       // in use; quarantine when its packet releases it
	slotQuarantined       // out of service, on no list
)

// init allocates the register file and owner table of a pool with the
// given queue count and total slot capacity, and frees every slot. A
// pool lives inside its group, which a per-port buffer allocates in one
// block with its view.
func (sp *SlotPool) init(numQueues, capacity int) {
	regs := make([]int32, capacity+numQueues*queueRegs)
	sp.next = regs[:capacity:capacity]
	sp.queues = regs[capacity:]
	sp.owner = make([]*packet.Packet, capacity)
	sp.Reset()
}

func (sp *SlotPool) NumQueues() int { return len(sp.queues) / queueRegs }
func (sp *SlotPool) Capacity() int  { return len(sp.next) }

// queue returns queue q's four registers.
// damqvet:hotpath
func (sp *SlotPool) queue(q int) *[queueRegs]int32 {
	return (*[queueRegs]int32)(sp.queues[q*queueRegs:])
}

// FreeSlots is the number of slots available to a new packet, across the
// whole pool.
// damqvet:hotpath
func (sp *SlotPool) FreeSlots() int { return int(sp.freeCount) }

// QueueLen is the number of packets in queue q.
// damqvet:hotpath
func (sp *SlotPool) QueueLen(q int) int { return int(sp.queues[q*queueRegs+regPkts]) }

// QueueSlots is the number of slots held by queue q.
// damqvet:hotpath
func (sp *SlotPool) QueueSlots(q int) int { return int(sp.queues[q*queueRegs+regSlots]) }

// Head returns the first packet of queue q without removing it, or nil.
// damqvet:hotpath
func (sp *SlotPool) Head(q int) *packet.Packet {
	r := sp.queue(q)
	if r[regPkts] == 0 {
		return nil
	}
	return sp.owner[r[regHead]]
}

// takeFree removes and returns the head of the free list.
// damqvet:hotpath
func (sp *SlotPool) takeFree() int32 {
	s := sp.freeHead
	sp.freeHead = sp.next[s]
	if sp.freeHead == nilSlot {
		sp.freeTail = nilSlot
	}
	sp.freeCount--
	return s
}

// giveFree appends slot s to the free list, mirroring the transmission
// manager FSM returning freed slots. A slot marked for quarantine is
// diverted out of service instead of rejoining the pool.
// damqvet:hotpath
func (sp *SlotPool) giveFree(s int32) {
	sp.next[s] = nilSlot
	sp.owner[s] = nil
	if sp.quar != nil && sp.quar[s] == slotQuarPending {
		sp.quar[s] = slotQuarantined
		sp.quarCount++
		return
	}
	if sp.freeTail == nilSlot {
		sp.freeHead = s
	} else {
		sp.next[sp.freeTail] = s
	}
	sp.freeTail = s
	sp.freeCount++
}

// Push stores p at the tail of queue q. The caller must have established
// admission: p.Slots in [1, FreeSlots()]. The packet's slots are pulled
// off the free list and chained; the first slot records the packet (the
// hardware's header/length registers are associated with the packet's
// first slot).
// damqvet:hotpath
func (sp *SlotPool) Push(q int, p *packet.Packet) {
	first := sp.takeFree()
	sp.owner[first] = p
	if sp.stamp != nil {
		sp.stamp[first] = sp.now
	}
	last := first
	for i := 1; i < p.Slots; i++ {
		s := sp.takeFree()
		sp.next[last] = s
		last = s
	}
	sp.next[last] = nilSlot

	// Append to the queue: point the old tail's slot at the packet's first
	// slot, then move the tail register.
	r := sp.queue(q)
	if r[regTail] == nilSlot {
		r[regHead] = first
	} else {
		sp.next[r[regTail]] = first
	}
	r[regTail] = last
	r[regPkts]++
	r[regSlots] += int32(p.Slots)
}

// Pop removes and returns the head packet of queue q, or nil.
// damqvet:hotpath
func (sp *SlotPool) Pop(q int) *packet.Packet {
	r := sp.queue(q)
	if r[regPkts] == 0 {
		return nil
	}
	first := r[regHead]
	p := sp.owner[first]
	// Walk the packet's slots, advancing the head register and returning
	// each slot to the free list as the hardware does after transmission.
	s := first
	for i := 0; i < p.Slots; i++ {
		n := sp.next[s]
		sp.giveFree(s)
		s = n
	}
	r[regHead] = s
	if s == nilSlot {
		r[regTail] = nilSlot
	}
	r[regPkts]--
	r[regSlots] -= int32(p.Slots)
	return p
}

// EnableClock allocates the per-slot enqueue stamps that HeadAge reads.
// Kinds whose admission policy is delay-driven (BShare) call it at
// construction; all other kinds leave the clock off and Push skips the
// stamp write.
func (sp *SlotPool) EnableClock() {
	if sp.stamp == nil {
		sp.stamp = make([]int64, len(sp.next))
	}
}

// Tick advances the pool clock by one cycle. The owning switch calls it
// once per long clock; the network simulator calls it from the inject
// phase, after the cycle's last admission, and the composed buffer then
// republishes its age-dependent room for the next route phase.
// damqvet:hotpath
func (sp *SlotPool) Tick() { sp.now++ }

// Now is the current pool tick.
// damqvet:hotpath
func (sp *SlotPool) Now() int64 { return sp.now }

// HeadAge is how many ticks the head packet of queue q has waited, or 0
// for an empty queue. It requires EnableClock; without it every age
// reads 0.
// damqvet:hotpath
func (sp *SlotPool) HeadAge(q int) int64 {
	r := sp.queue(q)
	if r[regPkts] == 0 || sp.stamp == nil {
		return 0
	}
	return sp.now - sp.stamp[r[regHead]]
}

// QuarantineSlot takes slot s out of service, modelling a stuck-at/dead
// slot detected by the hardware's self-test. A free slot is unlinked from
// the free list immediately; a slot currently holding packet data keeps
// serving its packet and is diverted to quarantine when released (yanking
// a live slot would corrupt its packet's chain — exactly the failure mode
// quarantine exists to prevent). Capacity shrinks by one either way; the
// nominal Capacity() is unchanged so occupancy ratios stay comparable.
//
// Returns true if this call newly removed the slot from service, false if
// it was already quarantined or pending. This is a cold path: it may
// allocate (first call) and walk the free list.
func (sp *SlotPool) QuarantineSlot(s int) bool {
	if s < 0 || s >= len(sp.next) {
		panic(fmt.Sprintf("slotpool: QuarantineSlot(%d) out of range [0,%d)", s, len(sp.next)))
	}
	if sp.quar == nil {
		sp.quar = make([]uint8, len(sp.next))
	}
	if sp.quar[s] != slotHealthy {
		return false
	}
	// Unlink from the free list if present; otherwise the slot is in use.
	prev := nilSlot
	for cur := sp.freeHead; cur != nilSlot; cur = sp.next[cur] {
		if cur == int32(s) {
			if prev == nilSlot {
				sp.freeHead = sp.next[cur]
			} else {
				sp.next[prev] = sp.next[cur]
			}
			if sp.freeTail == cur {
				sp.freeTail = prev
			}
			sp.freeCount--
			sp.next[cur] = nilSlot
			sp.quar[s] = slotQuarantined
			sp.quarCount++
			return true
		}
		prev = cur
	}
	sp.quar[s] = slotQuarPending
	return true
}

// Quarantined reports how many slots are fully out of service (pending
// slots still serving a packet are not counted until released).
func (sp *SlotPool) Quarantined() int { return int(sp.quarCount) }

// QuarantinedIn counts fully out-of-service slots in [lo, hi). A shared
// pool's per-port views use it to report their own window's casualties.
// Cold path.
func (sp *SlotPool) QuarantinedIn(lo, hi int) int {
	if sp.quar == nil {
		return 0
	}
	n := 0
	for s := lo; s < hi; s++ {
		if sp.quar[s] == slotQuarantined {
			n++
		}
	}
	return n
}

// slotOut reports whether slot s is fully quarantined; tests reconcile
// deferred quarantine against it.
func (sp *SlotPool) slotOut(s int) bool {
	return sp.quar != nil && sp.quar[s] == slotQuarantined
}

// Reset returns every slot to the free list, in index order. Reset models
// a power cycle: quarantine state and the clock are cleared and every
// slot rejoins the pool.
func (sp *SlotPool) Reset() {
	sp.quar = nil
	sp.quarCount = 0
	sp.now = 0
	for i := range sp.next {
		sp.next[i] = int32(i + 1)
		sp.owner[i] = nil
	}
	capacity := int32(len(sp.next))
	if capacity > 0 {
		sp.next[capacity-1] = nilSlot
		sp.freeHead = 0
		sp.freeTail = capacity - 1
	} else {
		sp.freeHead, sp.freeTail = nilSlot, nilSlot
	}
	sp.freeCount = capacity
	for q := 0; q < sp.NumQueues(); q++ {
		*sp.queue(q) = [queueRegs]int32{regHead: nilSlot, regTail: nilSlot}
	}
}

// CheckInvariants verifies the structural health of the slot pool: every
// slot is on exactly one list (or quarantined and on none), per-queue
// counters match the lists, queue order is intact, and free accounting is
// exact. expect, if non-nil, maps a queue index to the OutPort every
// packet on that queue must carry (the composed buffer supplies its
// queue-to-port layout); pass nil to skip the routing check. Tests call
// it after random operation sequences; it is the software analogue of the
// FSM synchronization argument in Section 3.2.3 of the paper.
func (sp *SlotPool) CheckInvariants(expect func(q int) int) error {
	capacity := len(sp.next)
	seen := make([]bool, capacity)

	walk := func(head int32, name string) (slots int, err error) {
		for s := head; s != nilSlot; s = sp.next[s] {
			if s < 0 || int(s) >= capacity {
				return 0, fmt.Errorf("slotpool: %s list points at invalid slot %d", name, s)
			}
			if seen[s] {
				return 0, fmt.Errorf("slotpool: slot %d appears on two lists (second: %s)", s, name)
			}
			seen[s] = true
			slots++
			if slots > capacity {
				return 0, fmt.Errorf("slotpool: %s list is cyclic", name)
			}
		}
		return slots, nil
	}

	freeSlots, err := walk(sp.freeHead, "free")
	if err != nil {
		return err
	}
	if freeSlots != int(sp.freeCount) {
		return fmt.Errorf("slotpool: free list has %d slots, counter says %d", freeSlots, sp.freeCount)
	}
	for s := sp.freeHead; s != nilSlot; s = sp.next[s] {
		if sp.quar != nil && sp.quar[s] == slotQuarantined {
			return fmt.Errorf("slotpool: quarantined slot %d is on the free list", s)
		}
	}

	total := freeSlots
	for q := 0; q < sp.NumQueues(); q++ {
		// Walk the queue packet by packet to validate per-packet chaining.
		r := sp.queue(q)
		s := r[regHead]
		pkts, slots := 0, 0
		for s != nilSlot {
			p := sp.owner[s]
			if p == nil {
				return fmt.Errorf("slotpool: queue %d head slot %d has no owner packet", q, s)
			}
			if expect != nil {
				if want := expect(q); p.OutPort != want {
					return fmt.Errorf("slotpool: packet %v found on queue %d (want OutPort %d)", p, q, want)
				}
			}
			last := s
			for i := 0; i < p.Slots; i++ {
				if last == nilSlot {
					return fmt.Errorf("slotpool: packet %v truncated in queue %d", p, q)
				}
				if i > 0 && sp.owner[last] != nil {
					return fmt.Errorf("slotpool: continuation slot %d of %v owns a packet", last, p)
				}
				if seen[last] {
					return fmt.Errorf("slotpool: slot %d double-booked in queue %d", last, q)
				}
				seen[last] = true
				slots++
				if i < p.Slots-1 {
					last = sp.next[last]
				}
			}
			if sp.next[last] == nilSlot && r[regTail] != last {
				return fmt.Errorf("slotpool: queue %d tail register %d != actual tail %d", q, r[regTail], last)
			}
			s = sp.next[last]
			pkts++
			if pkts > capacity {
				return fmt.Errorf("slotpool: queue %d is cyclic", q)
			}
		}
		if pkts != int(r[regPkts]) {
			return fmt.Errorf("slotpool: queue %d has %d packets, counter says %d", q, pkts, r[regPkts])
		}
		if slots != int(r[regSlots]) {
			return fmt.Errorf("slotpool: queue %d holds %d slots, counter says %d", q, slots, r[regSlots])
		}
		if pkts == 0 && (r[regHead] != nilSlot || r[regTail] != nilSlot) {
			return fmt.Errorf("slotpool: empty queue %d has live head/tail registers", q)
		}
		total += slots
	}
	quarSlots := 0
	if sp.quar != nil {
		for s := 0; s < capacity; s++ {
			if sp.quar[s] != slotQuarantined {
				continue
			}
			if seen[s] {
				return fmt.Errorf("slotpool: quarantined slot %d is on a list", s)
			}
			seen[s] = true
			quarSlots++
		}
	}
	if quarSlots != int(sp.quarCount) {
		return fmt.Errorf("slotpool: %d slots quarantined, counter says %d", quarSlots, sp.quarCount)
	}
	total += quarSlots
	if total != capacity {
		return fmt.Errorf("slotpool: %d slots accounted for, capacity %d", total, capacity)
	}
	return nil
}

// Dump renders the slot pool's linked-list structure for debugging: each
// queue as its chain of (slot, packet) hops and the free list as slot
// indices. The output is the software view of the chip's pointer
// registers.
func (sp *SlotPool) Dump() string {
	var sb strings.Builder
	for q := 0; q < sp.NumQueues(); q++ {
		fmt.Fprintf(&sb, "q%d:", q)
		s := sp.queue(q)[regHead]
		for n := 0; n < sp.QueueLen(q); n++ {
			p := sp.owner[s]
			fmt.Fprintf(&sb, " [pkt%d:", p.ID)
			for i := 0; i < p.Slots; i++ {
				fmt.Fprintf(&sb, " %d", s)
				s = sp.next[s]
			}
			sb.WriteString("]")
		}
		sb.WriteString("\n")
	}
	sb.WriteString("free:")
	for s := sp.freeHead; s != nilSlot; s = sp.next[s] {
		fmt.Fprintf(&sb, " %d", s)
	}
	sb.WriteString("\n")
	if sp.quarCount > 0 {
		sb.WriteString("quarantined:")
		for s := range sp.quar {
			if sp.quar[s] == slotQuarantined {
				fmt.Fprintf(&sb, " %d", s)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
