package comcobb

import (
	"fmt"

	"damq/internal/cfgerr"
	"damq/internal/fault"
	"damq/internal/obs"
)

// DefaultSlots is the per-input-port slot count used when a Config leaves
// it zero: 12 slots, the paper's "96 static cells on a single bus line
// (12 slots)".
const DefaultSlots = 12

// Config parameterizes a chip.
type Config struct {
	// Slots is the per-input-port buffer size in 8-byte slots.
	Slots int
	// Trace, when non-nil, records cycle/phase events.
	Trace *Trace
	// Observer, when non-nil, registers the chip.* counters (cycles,
	// grants, rx/tx packets) in its registry; if a Trace is also present
	// the trace counts per-unit events there too. Like Trace, a nil
	// Observer costs nothing on the cycle path.
	Observer *obs.Observer
	// MINMode relaxes the coprocessor rule that input port i never
	// routes to output port i: in a multistage interconnection network
	// the two sides of a port pair face different neighbors, so the turn
	// is legitimate. Package chipnet sets this.
	MINMode bool
	// Faults, when any rate is non-zero, arms wire-corruption injection
	// on the chip's input links and parity checking in its receivers
	// (drop + NACK on mismatch). The zero value keeps the chip exactly
	// as fast and deterministic as a fault-free build.
	Faults fault.Config
}

// Validate checks the config under the repo-wide sentinel-error
// convention: an explicit Slots below MaxSlotsPerPacket (a buffer that
// cannot hold one full packet) wraps cfgerr.ErrBadCapacity. Zero Slots
// is valid and means DefaultSlots.
func (cfg Config) Validate() error {
	if cfg.Slots != 0 && cfg.Slots < MaxSlotsPerPacket {
		return fmt.Errorf("comcobb: need at least %d slots per buffer, got %d: %w",
			MaxSlotsPerPacket, cfg.Slots, cfgerr.ErrBadCapacity)
	}
	return cfg.Faults.Validate()
}

// Chip is one ComCoBB communication coprocessor: five port pairs (four
// network links plus the processor interface) around a 5×5 crossbar.
type Chip struct {
	cycle    int64
	trace    *Trace
	m        *chipMetrics // nil when no observer is attached
	flt      *chipFaults  // nil when fault injection is off
	inPorts  [NumPorts]*InPort
	outPorts [NumPorts]*OutPort
	inLinks  [NumPorts]*Link
	outLinks [NumPorts]*Link
	prio     int // arbiter round-robin pointer
}

// NewChip builds a chip with fresh, unconnected links on every port.
func NewChip(cfg Config) *Chip {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	slots := cfg.Slots
	if slots == 0 {
		slots = DefaultSlots
	}
	c := &Chip{trace: cfg.Trace}
	if cfg.Faults.Enabled() {
		inj, err := fault.NewInjector(cfg.Faults)
		if err != nil {
			panic(err) // unreachable: Validate already passed
		}
		c.flt = newChipFaults(inj, cfg.Observer)
	}
	if cfg.Observer != nil {
		c.m = newChipMetrics(cfg.Observer)
		if c.trace != nil {
			// Generalized tracing: the event recorder also counts events
			// per unit in the observer's registry.
			c.trace.Metrics = cfg.Observer.Registry()
		}
	}
	for i := 0; i < NumPorts; i++ {
		c.inLinks[i] = &Link{}
		c.outLinks[i] = &Link{}
		c.inPorts[i] = newInPort(c, i, slots, cfg.MINMode)
		c.outPorts[i] = newOutPort(c, i, c.outLinks[i])
		c.inLinks[i].downstream = c.inPorts[i]
	}
	return c
}

// Cycle returns the current clock cycle.
func (c *Chip) Cycle() int64 { return c.cycle }

// Trace returns the chip's event trace (may be nil).
func (c *Chip) Trace() *Trace { return c.trace }

// FaultStats returns the chip's fault counters (all zero on a fault-free
// chip).
func (c *Chip) FaultStats() FaultStats {
	if c.flt == nil {
		return FaultStats{}
	}
	return c.flt.stats
}

// In returns input port i, for configuration (routing tables) and
// inspection.
func (c *Chip) In(i int) *InPort { return c.inPorts[i] }

// Out returns output port i.
func (c *Chip) Out(i int) *OutPort { return c.outPorts[i] }

// InLink returns the link feeding input port i. Testbenches drive it;
// Connect rewires it between chips.
func (c *Chip) InLink(i int) *Link { return c.inLinks[i] }

// OutLink returns the link driven by output port i. Unconnected output
// links collect their traffic into a sink readable via Delivered.
func (c *Chip) OutLink(i int) *Link { return c.outLinks[i] }

// Delivered decodes and returns the packets collected at unconnected
// output port i (a testbench memory or the local processor). All packets
// are assumed to carry length bytes; use DeliveredWith when the sink
// receives continuation circuits.
func (c *Chip) Delivered(i int) []DecodedPacket {
	return DecodeWire(c.outLinks[i].sink)
}

// DeliveredWith decodes output port i's capture using the receiver's
// knowledge of continuation circuits (header byte → continuation length).
func (c *Chip) DeliveredWith(i int, contLength map[byte]int) []DecodedPacket {
	return DecodeWireWith(c.outLinks[i].sink, contLength)
}

// Connect wires output port out of chip a to input port in of chip b:
// they share one Link, and flow control probes b's buffer.
func Connect(a *Chip, out int, b *Chip, in int) {
	l := &Link{downstream: b.inPorts[in]}
	a.outLinks[out] = l
	a.outPorts[out].link = l
	b.inLinks[in] = l
}

// phase0Out drives all output wires for this cycle.
// damqvet:hotpath
func (c *Chip) phase0Out() {
	for _, op := range c.outPorts {
		op.phase0()
	}
}

// phase0In samples all input wires and collects sink links. Wire
// corruption is injected here — after every producer has driven, before
// any consumer samples — so a corrupted byte is what the synchronizer
// actually latches.
// damqvet:hotpath
func (c *Chip) phase0In() {
	if c.flt != nil {
		c.flt.corrupt(c)
	}
	for i, ip := range c.inPorts {
		ip.phase0(c.inLinks[i])
	}
	for _, l := range c.outLinks {
		if l.downstream == nil {
			l.collect()
		}
	}
}

// phase1 runs routing/latching, transmission cleanup, then arbitration.
// damqvet:hotpath
func (c *Chip) phase1() {
	for _, ip := range c.inPorts {
		ip.phase1()
	}
	for _, op := range c.outPorts {
		op.phase1()
	}
	c.arbitrate()
	c.cycle++
	if c.m != nil {
		c.m.cycles.Inc()
	}
}

// Tick advances a single standalone chip one clock cycle. Multi-chip
// systems must use Network.Tick so wires settle in dependency order.
// damqvet:hotpath
func (c *Chip) Tick() {
	c.phase0Out()
	c.phase0In()
	c.phase1()
}

// slotsNeeded is the buffer footprint of a packet with n payload bytes.
func slotsNeeded(n int) int { return (n + SlotBytes - 1) / SlotBytes }

// arbitrate implements the central crossbar arbiter (phase 1). Requests
// posted by the router in an earlier phase (Table 1: router → arbiter at
// cycle 2 phase 1, grant latched cycle 3 phase 1) compete; each input
// buffer has a single read port, each output takes one connection, and a
// grant requires downstream space for the whole packet (credit-based flow
// control).
// damqvet:hotpath
func (c *Chip) arbitrate() {
	for k := 0; k < NumPorts; k++ {
		i := (c.prio + k) % NumPorts
		in := c.inPorts[i]
		if in.readBusy {
			continue
		}
		// Longest eligible queue first, as in the network-level arbiter.
		best, bestLen := -1, 0
		for o := 0; o < NumPorts; o++ {
			if c.outPorts[o].Busy() || c.outPorts[o].Hold {
				continue
			}
			pkt := in.head(o)
			if pkt == nil || !c.eligible(pkt, o) {
				continue
			}
			if l := in.QueueLen(o); best == -1 || l > bestLen {
				best, bestLen = o, l
			}
		}
		if best >= 0 {
			c.outPorts[best].grant(in)
			if c.m != nil {
				c.m.grants.Inc()
			}
		}
	}
	c.prio = (c.prio + 1) % NumPorts
}

// eligible applies the per-packet grant conditions: the request must be
// at least one full cycle old (the arbitration latency of Table 1), the
// length register must be loaded, and the downstream buffer must have
// room for the entire packet.
// damqvet:hotpath
func (c *Chip) eligible(pkt *rxPacket, out int) bool {
	if pkt.routedCycle >= c.cycle {
		return false // request posted this phase; grant next cycle
	}
	if pkt.length == 0 {
		return false // length byte not latched yet
	}
	if down := c.outPorts[out].link.downstream; down != nil {
		if down.FreeSlots() < slotsNeeded(pkt.length) {
			return false
		}
	}
	return true
}
