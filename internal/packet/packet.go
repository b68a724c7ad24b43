// Package packet defines the packet model shared by the long-clock switch
// and network simulators.
//
// In the paper's evaluation (Section 4) packets are fixed length and move
// whole-packet-at-a-time on a "long clock"; the variable-length,
// byte-serial behaviour is modeled separately, at clock-cycle granularity,
// by package comcobb. A Packet here therefore carries routing and
// accounting metadata but no payload bytes.
package packet

import "fmt"

// Packet is one fixed- or variable-length packet traversing a simulated
// network. Fields are exported because the simulator packages in this
// module construct and inspect packets directly; external users go through
// the damq facade.
type Packet struct {
	// ID is unique per simulation run, assigned by the allocator.
	ID uint64
	// Source is the network input (processor) that generated the packet.
	Source int
	// Dest is the network output (memory module) the packet is addressed to.
	Dest int
	// Slots is the storage the packet occupies in a buffer, in slot units.
	// Fixed-length experiments use 1; the variable-length extension uses
	// 1..4 (the paper's 1-32 bytes in 8-byte slots).
	Slots int
	// Born is the long-clock cycle in which the packet was generated.
	Born int64
	// Injected is the cycle the packet entered the first network stage
	// (-1 until then). Network latency in saturated regimes is measured
	// from Injected; end-to-end latency from Born.
	Injected int64
	// Hot marks hot-spot packets, for per-class accounting.
	Hot bool
	// OutPort is scratch used inside a switch: the local output port the
	// packet has been routed to. It is rewritten at every stage.
	OutPort int
	// Bytes is the payload size in bytes; used by the asynchronous
	// event-driven simulator, where link occupancy is per byte. The
	// long-clock simulators use Slots only.
	Bytes int
	// ReadyAt is event-simulator scratch: the time the packet's routing
	// completes at its current switch and it becomes eligible for the
	// crossbar. Rewritten at every hop.
	ReadyAt int64
}

// String renders the packet for traces and test failures.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %d->%d slots=%d born=%d", p.ID, p.Source, p.Dest, p.Slots, p.Born)
}

// Alloc hands out packets with unique IDs, recycling retired packets
// through a free list. A long-clock simulation births one packet per
// source per cycle at full load and retires one per delivery or discard,
// so without recycling the packet churn dominates the allocation profile
// of a run; with it, steady state allocates nothing — the live set plus
// free list plateau at the simulation's high-water mark.
//
// An Alloc belongs to one simulation shard (it is not safe for concurrent
// use); parallel sweeps give each run its own Alloc, and a sharded run
// gives each shard its own, partitioned over the ID space with
// SetIDStream so IDs stay unique network-wide.
type Alloc struct {
	next uint64
	// offset/stride partition the ID space across shards (SetIDStream).
	// The zero value issues 1, 2, 3, ... exactly as before.
	offset uint64
	stride uint64
	free   []*Packet
}

// SetIDStream partitions the ID space for sharded simulations: the n-th
// packet (1-based) gets ID offset + (n-1)*stride + 1, so shard k of S
// calling SetIDStream(k, S) issues IDs congruent to k+1 mod S — unique
// across shards without any cross-shard coordination. Call before the
// first New; the zero state behaves as SetIDStream(0, 1).
func (a *Alloc) SetIDStream(offset, stride uint64) {
	if stride == 0 {
		stride = 1
	}
	a.offset = offset
	a.stride = stride
}

// New returns a packet with the next unique ID and Injected = -1,
// reusing a recycled packet when one is available. Every field is reset,
// so a recycled packet is indistinguishable from a fresh one.
// damqvet:hotpath
func (a *Alloc) New(source, dest, slots int, born int64) *Packet {
	a.next++
	id := a.next
	if a.stride > 1 {
		id = a.offset + (a.next-1)*a.stride + 1
	}
	var p *Packet
	if n := len(a.free); n > 0 {
		p = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		p = new(Packet)
	}
	// Field by field, not *p = Packet{...}: a composite literal is built
	// in a stack temporary and block-copied over the packet.
	p.ID, p.Source, p.Dest, p.Slots, p.Born, p.Injected = id, source, dest, slots, born, -1
	p.Hot, p.OutPort, p.Bytes, p.ReadyAt = false, 0, 0, 0
	return p
}

// Clone returns a copy of src drawn from the free list (or fresh if the
// list is empty), every field equal — including ID, which is deliberately
// not re-issued: a clone is the same packet duplicated across a
// cut-through hop, not a new birth, so Issued and the ID stream are
// untouched. The event-driven simulator clones a packet into the next
// stage's buffer while the original's tail is still draining out of the
// current one.
// damqvet:hotpath
func (a *Alloc) Clone(src *Packet) *Packet {
	var p *Packet
	if n := len(a.free); n > 0 {
		p = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		p = new(Packet)
	}
	*p = *src
	return p
}

// Recycle returns a retired packet to the free list. The caller must hold
// the only remaining reference: the packet will be handed out again by a
// future New with all fields rewritten.
// damqvet:hotpath
func (a *Alloc) Recycle(p *Packet) {
	if p == nil {
		return
	}
	a.free = append(a.free, p)
}

// Donate moves up to n retired packets from a's free list to dst's and
// reports how many moved. A sharded simulation's coordinator rebalances
// pools with it between cycles: packets recycle into the pool of the
// shard that retires them, not the one that birthed them, so without
// rebalancing the birth-heavy pools allocate forever while the others
// hoard. A donated packet carries no state — New rewrites every field —
// so donation cannot affect simulation results.
func (a *Alloc) Donate(dst *Alloc, n int) int {
	if n > len(a.free) {
		n = len(a.free)
	}
	if n <= 0 || dst == a {
		return 0
	}
	cut := len(a.free) - n
	for i, p := range a.free[cut:] {
		dst.free = append(dst.free, p)
		a.free[cut+i] = nil
	}
	a.free = a.free[:cut]
	return n
}

// Issued reports how many packets have been allocated (recycled reuses
// count again: Issued tracks IDs handed out, not distinct allocations).
func (a *Alloc) Issued() uint64 { return a.next }

// FreeListLen reports how many retired packets are waiting for reuse.
func (a *Alloc) FreeListLen() int { return len(a.free) }

// SetIssued overwrites the ID-stream position, for checkpoint restore:
// with the position and SetIDStream's (offset, stride) restored, the
// allocator reissues the identical ID sequence the checkpointed run
// would have continued with. The free list is deliberately not part of
// checkpoint state — New rewrites every field of a reused packet, so
// free-list contents cannot affect simulation results.
func (a *Alloc) SetIssued(n uint64) { a.next = n }
