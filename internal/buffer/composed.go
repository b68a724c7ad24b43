package buffer

import (
	"fmt"

	"damq/internal/cfgerr"
	"damq/internal/packet"
)

// group is the sharing unit of the admission/storage split: one slot
// pool, the admission rule that guards it, and the cross-queue
// accounting the rule reads. A per-port buffer owns a group privately;
// the switch-wide shared-pool mode hands one group to every input port's
// view, which is all it takes for admission at one port to see — and
// compete for — the whole switch's storage.
type group struct {
	rule rule
	pool SlotPool
	// classSlots tracks pool-wide slots per priority class; nil unless the
	// rule is class-aware (FB), so everyone else skips the bookkeeping.
	classSlots []int
	// expectOut maps a pool queue index to the OutPort its packets must
	// carry; CheckInvariants uses it, nil skips the routing check.
	expectOut func(q int) int
}

func (g *group) init(numQueues, capacity int, r rule, expectOut func(q int) int) {
	g.pool.init(numQueues, capacity)
	if r.kind == bshare { // the delay-driven rule reads head ages
		g.pool.EnableClock()
	}
	g.rule, g.expectOut = r, expectOut
	if r.classes > 1 {
		g.classSlots = make([]int, r.classes)
	}
}

// Composed is a Buffer assembled from a storage group and the view
// parameters that map this input port onto it. Every kind in the package
// is a composed buffer; they differ only in admission rule, queue layout
// (single/per-output), read bandwidth, and which group they share. The
// switch and the event-driven simulator hold it as this concrete type, so
// the per-packet path makes direct calls.
type Composed struct {
	// The fields the per-packet path reads come first.
	g *group
	// room is the admission-room window (AttachRoom) this view rewrites
	// on every state change but a pop; nil when nobody reads it, which
	// costs the state changes one nil check.
	room       []int32
	pkts       int // packets in this view's queues, for O(1) Len
	numOutputs int
	qBase      int   // first pool queue belonging to this view
	single     bool  // one queue for every output (FIFO)
	portCheck  bool  // CanAccept rejects out-of-range ports (static and modern kinds do)
	nominalCap int32 // Capacity() this view reports: its own port's share
	kind       Kind
}

// newView returns the view of input port port onto g: its queues are
// the port's numOutputs pool queues (one for a FIFO) and its quarantine
// window is the port's capacity slots.
func newView(g *group, kind Kind, numOutputs, capacity, port int) Composed {
	return Composed{
		g:          g,
		kind:       kind,
		numOutputs: numOutputs,
		nominalCap: int32(capacity),
		qBase:      port * numOutputs,
		single:     kind == FIFO,
		portCheck:  kind == SAMQ || kind == SAFC || KindModern(kind),
	}
}

func (c *Composed) Kind() Kind            { return c.kind }
func (c *Composed) NumOutputs() int       { return c.numOutputs }
func (c *Composed) Capacity() int         { return int(c.nominalCap) }
func (c *Composed) MaxReadsPerCycle() int { return kindReads(c.kind, c.numOutputs) }

// slotBase is the first pool slot of this view's quarantine window: the
// view of input port p owns slots [p*Capacity(), (p+1)*Capacity()).
func (c *Composed) slotBase() int { return c.qBase / c.numOutputs * c.Capacity() }

// Free reports the slots available in the backing pool. For a shared
// group this is the switch-wide free count, which may exceed this view's
// nominal Capacity — admission is the rule's call, not a per-view cap.
// damqvet:hotpath
func (c *Composed) Free() int { return c.g.pool.FreeSlots() }

// damqvet:hotpath
func (c *Composed) Len() int { return c.pkts }

// damqvet:hotpath
func (c *Composed) Empty() bool { return c.pkts == 0 }

// queueOf maps an output port to its pool queue.
// damqvet:hotpath
func (c *Composed) queueOf(out int) int {
	if c.single {
		return c.qBase
	}
	return c.qBase + out
}

// CanAccept asks the admission rule whether p fits right now.
// damqvet:hotpath
func (c *Composed) CanAccept(p *packet.Packet) bool { return c.CanAcceptOut(p, p.OutPort) }

// CanAcceptOut is CanAccept for p routed to output out, whatever
// p.OutPort says: upstream flow control asks it about a packet still
// routed for the hop it is leaving, without copying or rewriting it.
// Past the port check it is the rule's room for p's queue and class.
// damqvet:hotpath
func (c *Composed) CanAcceptOut(p *packet.Packet, out int) bool {
	if c.portCheck && uint(out) >= uint(c.numOutputs) {
		return false
	}
	g := c.g
	k := 0
	if g.rule.classes > 1 { // read beside the rule kind, not the far class tally
		k = classOf(p, g.rule.classes)
	}
	return p.Slots <= int(g.room(c.queueOf(out), k))
}

func (c *Composed) Accept(p *packet.Packet) error {
	prefix := kindPrefix(c.kind)
	if p.OutPort < 0 || p.OutPort >= c.numOutputs {
		return fmt.Errorf("%s: %w: %d", prefix, ErrBadPort, p.OutPort)
	}
	if p.Slots <= 0 {
		return fmt.Errorf("%s: packet %v has non-positive slot count", prefix, p)
	}
	if !c.CanAccept(p) {
		if c.g.rule.kind == completePartition {
			return fmt.Errorf("%s: %w (queue %d free %d, need %d)",
				prefix, ErrFull, p.OutPort, c.QueueFree(p.OutPort), p.Slots)
		}
		return fmt.Errorf("%s: %w (free %d, need %d)", prefix, ErrFull, c.g.pool.freeCount, p.Slots)
	}
	c.push(p)
	return nil
}

// Offer is Accept reduced to the one admission decision a switch makes
// per arriving packet: it stores p and reports true exactly when
// CanAccept(p) holds. A packet CanAccept admits but Accept would refuse
// as malformed — an out-of-range port on a kind that does not check
// ports, or a non-positive slot count — can only come from a routing
// bug, and panics.
// damqvet:hotpath
func (c *Composed) Offer(p *packet.Packet) bool {
	if !c.CanAcceptOut(p, p.OutPort) {
		return false
	}
	if uint(p.OutPort) >= uint(c.numOutputs) || p.Slots <= 0 {
		panic(fmt.Sprintf("%s: admitted malformed packet %v", kindPrefix(c.kind), p))
	}
	c.push(p)
	return true
}

// push stores an admitted packet.
// damqvet:hotpath
func (c *Composed) push(p *packet.Packet) {
	c.g.pool.Push(c.queueOf(p.OutPort), p)
	if c.g.classSlots != nil {
		c.g.classSlots[classOf(p, c.g.rule.classes)] += p.Slots
	}
	c.pkts++
	c.PublishRoom()
}

// damqvet:hotpath
func (c *Composed) QueueLen(out int) int {
	if c.single {
		head := c.g.pool.Head(c.qBase)
		if head == nil || head.OutPort != out {
			return 0
		}
		return c.g.pool.QueueLen(c.qBase)
	}
	return c.g.pool.QueueLen(c.qBase + out)
}

// QueueLens writes QueueLen(out) of every output out into dst, which
// holds NumOutputs entries: one pass over the pool's queue registers, to
// fill a row of the switch's arbitration snapshot.
// damqvet:hotpath
func (c *Composed) QueueLens(dst []int) {
	sp := &c.g.pool
	if c.single {
		for o := range dst {
			dst[o] = 0
		}
		if head := sp.Head(c.qBase); head != nil {
			dst[head.OutPort] = sp.QueueLen(c.qBase)
		}
		return
	}
	for o := range dst {
		dst[o] = sp.QueueLen(c.qBase + o)
	}
}

// damqvet:hotpath
func (c *Composed) Head(out int) *packet.Packet {
	if c.single {
		head := c.g.pool.Head(c.qBase)
		if head == nil || head.OutPort != out {
			return nil
		}
		return head
	}
	return c.g.pool.Head(c.qBase + out)
}

// Pop removes and returns the head packet of the queue serving out, or
// nil when that queue has no head for out. It leaves an attached room
// window as it was: the window is a register latched at the clock edge,
// so an upstream arbiter that reads it after the pop still sees the
// room from before, and the caller latches the new room with
// PublishRoom at the next clock edge.
// damqvet:hotpath
func (c *Composed) Pop(out int) *packet.Packet {
	q := c.qBase
	if c.single {
		head := c.g.pool.Head(c.qBase)
		if head == nil || head.OutPort != out {
			return nil
		}
	} else {
		q += out
	}
	p := c.g.pool.Pop(q)
	if p == nil {
		return nil
	}
	if c.g.classSlots != nil {
		c.g.classSlots[classOf(p, c.g.rule.classes)] -= p.Slots
	}
	c.pkts--
	return p
}

// Reset discards the contents of the whole backing group, not just this
// view's queues — per-view partial reset of shared storage cannot be
// expressed in slot-pool hardware. Callers resetting a shared-pool
// switch reset every view (sw.Switch.Reset does), which also squares the
// per-view packet counters.
func (c *Composed) Reset() {
	c.g.pool.Reset()
	for i := range c.g.classSlots {
		c.g.classSlots[i] = 0
	}
	c.pkts = 0
	c.PublishRoom()
}

// QueueFree reports the free slots in the static budget of the queue
// serving out. It is the quantity the paper's per-queue flow control
// must communicate upstream (four times the flow-control information of
// a FIFO, as Section 2 notes). Meaningful only for partitioned kinds.
func (c *Composed) QueueFree(out int) int {
	return int(c.g.rule.perQueue) - c.g.pool.QueueSlots(c.qBase+out)
}

// Tick advances the group's clock by one cycle. Exactly one view per
// group has qBase 0, so ticking every view of a shared pool — which is
// what a per-buffer loop naturally does — advances the clock once.
// damqvet:hotpath
func (c *Composed) Tick() {
	if c.qBase == 0 {
		c.g.pool.Tick()
	}
	c.PublishRoom()
}

// RoomClasses is how many admission classes split each output's room:
// FB's priority class count, and 1 for every other kind.
func (c *Composed) RoomClasses() int { return max(c.g.rule.classes, 1) }

// AttachRoom makes this view publish its admission room into row, which
// holds NumOutputs()*RoomClasses() registers, and writes the current
// room there at once. Room register out*RoomClasses()+k is the largest
// slot count CanAcceptOut would admit for a packet of class k (Class)
// routed to out, 0 when none fits, so an upstream sender decides
// admission with p.Slots <= room and never reads this buffer. It is the
// per-queue flow-control line of the paper's hardware, which Section 2
// notes carries four times a FIFO's information, and like that line it
// is a register: Offer, Tick, Reset and QuarantineSlot rewrite it at
// once, but Pop leaves it latched until PublishRoom. Between a Pop and
// the next PublishRoom the row may understate the room, never overstate
// it, since a pop only widens every policy's room.
//
// Only a buffer that owns its pool publishes room: admission at one port
// of a shared pool changes every port's room, and one pool can approve
// arrivals at several ports that overflow it together.
func (c *Composed) AttachRoom(row []int32) {
	if c.g.pool.NumQueues() > c.numOutputs {
		panic(fmt.Sprintf("%s: AttachRoom on a shared-pool view", kindPrefix(c.kind)))
	}
	if len(row) != c.numOutputs*c.RoomClasses() {
		panic(fmt.Sprintf("%s: AttachRoom row of %d registers, want %d",
			kindPrefix(c.kind), len(row), c.numOutputs*c.RoomClasses()))
	}
	c.room = row
	c.publishRoom()
}

// PublishRoom latches the room of the current state into the window
// AttachRoom gave this view; without one it does nothing. The network
// simulator calls it for the buffers it popped, in the phase after the
// pops.
// damqvet:hotpath
func (c *Composed) PublishRoom() {
	if c.room != nil {
		c.publishRoom()
	}
}

// publishRoom rewrites the room window from the current state: the
// group's room for each output's queue and each admission class. Under
// complete sharing the room is the same for every queue and class, so
// one value fills the row.
// damqvet:hotpath
func (c *Composed) publishRoom() {
	g, row := c.g, c.room
	if g.rule.kind == completeSharing {
		room := g.room(c.qBase, 0)
		for i := range row {
			row[i] = room
		}
		return
	}
	classes := c.RoomClasses()
	for o := 0; o < c.numOutputs; o++ {
		q := c.queueOf(o)
		for k := 0; k < classes; k++ {
			row[o*classes+k] = g.room(q, k)
		}
	}
}

var _ Buffer = (*Composed)(nil)

// DAMQBuffer is the paper's dynamically allocated multi-queue buffer —
// complete sharing composed over the slot pool. The name survives the
// admission/storage split as an alias so the facade, tests, and the
// comcobb chip model keep their vocabulary.
type DAMQBuffer = Composed

// port is one per-port buffer in a single allocation: the view and its
// private group, which embeds the slot pool in turn. Only the pool's
// register file and owner table live elsewhere.
type port struct {
	Composed
	g group
}

func newPort(cfg Config) *port {
	numQueues, expect := cfg.NumOutputs, func(q int) int { return q }
	if cfg.Kind == FIFO {
		numQueues, expect = 1, nil
	}
	pt := &port{}
	pt.g.init(numQueues, cfg.Capacity, buildRule(cfg, cfg.Capacity), expect)
	pt.Composed = newView(&pt.g, cfg.Kind, cfg.NumOutputs, cfg.Capacity, 0)
	return pt
}

// NewDAMQ constructs a DAMQ buffer with the given queue count and total
// slot capacity.
func NewDAMQ(numOutputs, capacity int) *DAMQBuffer {
	return &newPort(Config{Kind: DAMQ, NumOutputs: numOutputs, Capacity: capacity}).Composed
}

// QuarantineSlot takes this view's slot s out of service; see
// SlotPool.QuarantineSlot. Slot numbering is view-local: under a shared
// pool, each input port's view addresses its own nominal-capacity window
// of the pool, so fault schedules computed per buffer keep working when
// storage spans ports. Every kind can quarantine; the fault injector
// only schedules it for pooled kinds (KindSharesPool).
func (c *Composed) QuarantineSlot(s int) bool {
	if s < 0 || s >= c.Capacity() {
		panic(fmt.Sprintf("%s: QuarantineSlot(%d) out of range [0,%d)", kindPrefix(c.kind), s, c.Capacity()))
	}
	ok := c.g.pool.QuarantineSlot(c.slotBase() + s)
	c.PublishRoom()
	return ok
}

// Quarantined reports how many slots of this view's window are fully out
// of service (pending slots still serving a packet are not counted until
// released).
func (c *Composed) Quarantined() int {
	return c.g.pool.QuarantinedIn(c.slotBase(), c.slotBase()+c.Capacity())
}

// CheckInvariants verifies the structural health of the backing pool,
// including that every packet sits on the queue its OutPort routes to.
func (c *Composed) CheckInvariants() error {
	return c.g.pool.CheckInvariants(c.g.expectOut)
}

// Dump renders the backing pool's linked-list structure for debugging.
func (c *Composed) Dump() string { return c.g.pool.Dump() }

// QueueSlots reports the slots currently held by the queue serving out
// (for a FIFO, the single queue), used by tests and the occupancy
// sampler.
func (c *Composed) QueueSlots(out int) int { return c.g.pool.QueueSlots(c.queueOf(out)) }

// Pool exposes the backing slot pool for tests, structural tooling and
// the checkpoint codec.
func (c *Composed) Pool() *SlotPool { return &c.g.pool }

// ruleOf is the admission rule kind k composes over the slot pool.
func ruleOf(k Kind) ruleKind {
	switch k {
	case SAMQ, SAFC:
		return completePartition
	case DT:
		return dynThreshold
	case FB:
		return fbSharing
	case BSHARE:
		return bshare
	default: // FIFO, DAMQ, DAFC
		return completeSharing
	}
}

// buildRule resolves cfg's kind and sharing knobs into the admission
// rule for a pool of poolCap total slots. poolCap equals cfg.Capacity for
// a per-port buffer and inputs*cfg.Capacity for a shared group — FB's
// per-class reserve scales with the real pool.
func buildRule(cfg Config, poolCap int) rule {
	r := rule{kind: ruleOf(cfg.Kind), alpha: cfg.Sharing.alpha()}
	switch r.kind {
	case completePartition:
		r.perQueue = int32(cfg.Capacity / cfg.NumOutputs)
	case fbSharing:
		r.classes = cfg.Sharing.classes()
		// Half the pool is hard-reserved in equal per-class quotas, the
		// other half is shared under the per-class decaying thresholds.
		r.reserve = poolCap / r.classes / 2
	case bshare:
		r.target, r.reserve = cfg.Sharing.delayTarget(), 1
	}
	return r
}

func kindReads(k Kind, numOutputs int) int {
	if k == SAFC || k == DAFC {
		return numOutputs
	}
	return 1
}

func kindPrefix(k Kind) string {
	switch k {
	case FIFO:
		return "fifo"
	case DAMQ, DAFC:
		return "damq"
	case DT:
		return "dt"
	case FB:
		return "fb"
	case BSHARE:
		return "bshare"
	default:
		return k.String()
	}
}

// NewSharedGroup constructs one storage group spanning inputs ports and
// returns the per-port Buffer views onto it: pool capacity is
// inputs*cfg.Capacity, pool queues are the inputs*NumOutputs (input,
// output) pairs, and the admission rule decides over switch-wide
// occupancy. Only pooled kinds may share (KindSharesPool); the static
// 1988 designs pre-partition storage per port by definition, so asking
// for them shared is a config error wrapping cfgerr.ErrBadSharing.
//
// Every returned view's quarantine window is its own port's
// cfg.Capacity slots, so per-buffer fault schedules hold when storage
// spans ports.
func NewSharedGroup(cfg Config, inputs int) ([]*Composed, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if inputs <= 0 {
		return nil, fmt.Errorf("buffer: shared group needs positive inputs, got %d: %w",
			inputs, cfgerr.ErrBadPorts)
	}
	if !KindSharesPool(cfg.Kind) {
		return nil, fmt.Errorf("buffer: %v (policy %s) cannot share one pool across ports: %w",
			cfg.Kind, cfg.Kind.PolicyName(), cfgerr.ErrBadSharing)
	}
	n := cfg.NumOutputs
	poolCap := inputs * cfg.Capacity
	g := &group{}
	g.init(inputs*n, poolCap, buildRule(cfg, poolCap), func(q int) int { return q % n })
	cs := make([]Composed, inputs)
	views := make([]*Composed, inputs)
	for i := range cs {
		cs[i] = newView(g, cfg.Kind, n, cfg.Capacity, i)
		views[i] = &cs[i]
	}
	return views, nil
}
