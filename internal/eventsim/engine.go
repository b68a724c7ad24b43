// Package eventsim is a discrete-event simulator for *asynchronous*
// multistage networks with virtual cut-through and variable-length
// packets — the regime the paper's conclusion points at ("variable length
// packets which arrive at the inputs of the switch asynchronously") and
// that the synchronized long-clock model of package netsim cannot
// express. The original authors used Fujimoto's SIMON event-driven
// simulator; this package is our stdlib-only equivalent.
//
// Time is an integer count of link clock cycles (one byte per cycle on a
// link, as on the ComCoBB's 20 MHz byte-serial links). A packet of L
// payload bytes occupies a link for Overhead+L cycles (start bit, header,
// length, payload); a switch turns a packet around in RouteDelay cycles
// when the path is idle (Table 1's four-cycle cut-through). Both are
// package constants, the ComCoBB's figures, so the
// contention-free network latency of an h-hop path is
// h·RouteDelay + Overhead + L — latency essentially independent of length
// except for the final drain, which is exactly the virtual cut-through
// property of Kermani & Kleinrock.
//
// The event core is built for throughput: events are small typed records
// (kind + site indices + an optional packet pointer) rather than
// closures, stored in a reusable slot arena and ordered by a timing
// wheel — a bucketed calendar queue (Brown, "Calendar Queues", CACM
// 1988) with one FIFO bucket per cycle of a 256-cycle horizon. Every
// in-network delay, at most max(RouteDelay, Overhead+32) = 35 cycles by
// the constants and New's 32-byte payload cap, fits inside the horizon,
// so scheduling and popping make no comparisons; only the rare long source
// interarrival gaps go to a small overflow heap. The seed implementation
// — `container/heap` over closure-valued events — paid one closure
// allocation plus one interface boxing per scheduled event; the typed
// engine's steady state allocates nothing, and the equivalence tests pin
// it bit-identical to the seed engine's execution order.
package eventsim

import (
	"fmt"

	"damq/internal/packet"
)

// eventKind discriminates the typed event records. Each kind names the
// handler its event is dispatched to; the a..d fields carry the
// handler's site indices.
type eventKind uint8

const (
	// evGenerate births a packet at source a and rearms the renewal
	// process.
	evGenerate eventKind = iota
	// evKickSource retries injecting source a's head packet.
	evKickSource
	// evKickSwitch runs the grant loop of switch (stage a, switch b).
	evKickSwitch
	// evCompleteTx finishes the transmission (stage a, switch b, input c,
	// output d).
	evCompleteTx
	// evDeliver records packet p's tail reaching its memory module.
	evDeliver
)

// Event is one typed event record: a kind plus the site indices and
// packet payload its handler needs. Events carry no func values and
// cross no interface, so scheduling one moves a few words — none of the
// closure or boxing allocations of the seed engine.
type Event struct {
	kind       eventKind
	a, b, c, d int32
	p          *packet.Packet
}

// Timing-wheel geometry: one bucket per cycle of a wheelSize-cycle
// horizon. An event due wheelSize or more cycles after Now goes to the
// overflow heap instead.
const (
	wheelSize = 256
	wheelMask = wheelSize - 1
)

// slot is one arena entry: an event plus its scheduling key and the
// intrusive link of the bucket (or free list) it sits on. Slot id 0 is a
// reserved sentinel, so a zero link means "none".
type slot struct {
	at   int64
	seq  uint64
	next int32
	ev   Event
}

// Engine is a deterministic discrete-event executor: a timing wheel of
// FIFO buckets over a reusable event arena, plus an overflow heap for
// events beyond the wheel's horizon. Every bucket holds events of one
// timestamp, linked in scheduling order, so same-time events execute in
// exactly the order they were scheduled — the same (time, sequence)
// total order as the seed container/heap engine, which
// TestAsyncEngineMatchesLegacy pins. Popped slots recycle through an
// intrusive free list, so once the arena reaches a run's high-water
// mark, scheduling and dispatch touch only preallocated memory: 0
// allocs/op steady state (BenchmarkAsyncEvent).
type Engine struct {
	slots []slot // event arena; index = slot id, slot 0 unused
	free  int32  // head of the retired-slot list (0 = empty)

	// head and tail link bucket t&wheelMask, which holds the events due
	// at time t for Now <= t < Now+wheelSize; queued counts them all.
	head, tail [wheelSize]int32
	queued     int

	// over holds the events scheduled wheelSize or more cycles ahead, as
	// a 4-ary min-heap of slot ids on (at, seq).
	over []int32
	seq  uint64
	now  int64
}

// Now returns the current simulation time.
func (e *Engine) Now() int64 { return e.now }

// Pending reports queued events.
func (e *Engine) Pending() int { return e.queued + len(e.over) }

// At schedules ev to run at time t (>= Now). Events at equal times run
// in scheduling order.
// damqvet:hotpath
func (e *Engine) At(t int64, ev Event) {
	if t < e.now {
		panic("eventsim: scheduling into the past")
	}
	e.seq++
	id := e.free
	if id != 0 {
		e.free = e.slots[id].next
	} else {
		if len(e.slots) == 0 {
			e.slots = append(e.slots, slot{}) // the nil sentinel
		}
		e.slots = append(e.slots, slot{})
		id = int32(len(e.slots) - 1)
	}
	e.slots[id] = slot{at: t, seq: e.seq, ev: ev}
	if t-e.now >= wheelSize {
		e.over = append(e.over, id)
		e.siftUp(len(e.over) - 1)
		return
	}
	b := t & wheelMask
	if e.head[b] == 0 {
		e.head[b] = id
	} else {
		e.slots[e.tail[b]].next = id
	}
	e.tail[b] = id
	e.queued++
}

// After schedules ev to run delay cycles from now.
// damqvet:hotpath
func (e *Engine) After(delay int64, ev Event) { e.At(e.now+delay, ev) }

// PopUntil advances time to the earliest pending event and returns it,
// provided that event is due at or before limit. Otherwise it advances
// time to limit and reports false.
//
// The scan keeps Now equal to the time it inspects, so it stops with
// Now = limit when nothing is due. At each time T the overflow heap goes
// first: an overflow event due at
// T was scheduled while Now <= T-wheelSize, before any bucketed event
// due at T, so it carries the lower sequence number.
// damqvet:hotpath
func (e *Engine) PopUntil(limit int64) (Event, bool) {
	for t := e.now; t <= limit; {
		if len(e.over) > 0 && e.slots[e.over[0]].at == t {
			id := e.over[0]
			last := len(e.over) - 1
			e.over[0] = e.over[last]
			e.over = e.over[:last]
			if last > 0 {
				e.siftDown(0)
			}
			return e.retire(id), true
		}
		b := t & wheelMask
		if id := e.head[b]; id != 0 {
			e.head[b] = e.slots[id].next
			e.queued--
			return e.retire(id), true
		}
		if t == limit {
			break
		}
		switch {
		case e.queued > 0:
			t++
		case len(e.over) > 0 && e.slots[e.over[0]].at < limit:
			t = e.slots[e.over[0]].at
		default:
			t = limit
		}
		e.now = t
	}
	return Event{}, false
}

// retire moves time to slot id's timestamp, returns its event, and puts
// the slot on the free list.
// damqvet:hotpath
func (e *Engine) retire(id int32) Event {
	s := &e.slots[id]
	e.now = s.at
	ev := s.ev
	s.ev.p = nil // drop the packet reference while the slot idles
	s.next = e.free
	e.free = id
	return ev
}

// less orders slot ids by (time, scheduling sequence): the sequence
// tie-break makes the overflow heap's order deterministic and FIFO among
// same-time events.
// damqvet:hotpath
func (e *Engine) less(a, b int32) bool {
	x, y := &e.slots[a], &e.slots[b]
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// siftUp restores the overflow heap invariant upward from position i.
// damqvet:hotpath
func (e *Engine) siftUp(i int) {
	id := e.over[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.less(id, e.over[parent]) {
			break
		}
		e.over[i] = e.over[parent]
		i = parent
	}
	e.over[i] = id
}

// siftDown restores the overflow heap invariant downward from position
// i. The 4-ary layout halves the binary heap's depth: sift-down does
// more comparisons per level but each level is one cache line of int32
// ids.
// damqvet:hotpath
func (e *Engine) siftDown(i int) {
	id := e.over[i]
	n := len(e.over)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		limit := first + 4
		if limit > n {
			limit = n
		}
		for c := first + 1; c < limit; c++ {
			if e.less(e.over[c], e.over[best]) {
				best = c
			}
		}
		if !e.less(e.over[best], id) {
			break
		}
		e.over[i] = e.over[best]
		i = best
	}
	e.over[i] = id
}

// checkOrder audits the calendar's invariants: every bucket holds only
// its own timestamp, within the horizon, in strictly increasing
// sequence, with its tail register on the last link; the overflow heap
// is heap-ordered and holds no past event; and Pending counts exactly
// the linked and heaped events.
func (e *Engine) checkOrder() error {
	linked := 0
	for b := range e.head {
		var prev *slot
		steps := 0
		for id := e.head[b]; id != 0; id = e.slots[id].next {
			if steps++; steps > len(e.slots) {
				return fmt.Errorf("eventsim: bucket %d links a cycle", b)
			}
			s := &e.slots[id]
			if s.at < e.now || s.at-e.now >= wheelSize || int(s.at&wheelMask) != b {
				return fmt.Errorf("eventsim: bucket %d holds slot %d due at %d (now %d)", b, id, s.at, e.now)
			}
			if prev != nil && (s.at != prev.at || s.seq <= prev.seq) {
				return fmt.Errorf("eventsim: bucket %d: slot %d (at %d, seq %d) follows (at %d, seq %d)",
					b, id, s.at, s.seq, prev.at, prev.seq)
			}
			if s.next == 0 && e.tail[b] != id {
				return fmt.Errorf("eventsim: bucket %d ends at slot %d but its tail is %d", b, id, e.tail[b])
			}
			prev = s
			linked++
		}
	}
	for i, id := range e.over {
		if e.slots[id].at < e.now {
			return fmt.Errorf("eventsim: overflow slot %d due at %d is in the past (now %d)", id, e.slots[id].at, e.now)
		}
		if i > 0 && e.less(id, e.over[(i-1)>>2]) {
			return fmt.Errorf("eventsim: overflow heap violated at position %d", i)
		}
	}
	if linked != e.queued {
		return fmt.Errorf("eventsim: buckets link %d events, queued count is %d", linked, e.queued)
	}
	if got, want := e.Pending(), linked+len(e.over); got != want {
		return fmt.Errorf("eventsim: Pending %d, calendar holds %d", got, want)
	}
	return nil
}
