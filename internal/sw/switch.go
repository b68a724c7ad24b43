// Package sw models one n×n packet switch under the long-clock model:
// per-input buffers of any of the paper's four organizations, a crossbar,
// and a central arbiter. A network simulator (package netsim) composes
// switches into stages; this package also supports standalone Monte-Carlo
// runs of a single discarding switch, used to cross-validate the Markov
// models and to reproduce Table-2-like behaviour by simulation.
//
// Cycle structure (one long clock, matching DESIGN.md §4):
//
//  1. Arbitrate: the switch inspects its buffers and the room its
//     downstream buffers publish (via a caller-supplied Downstream view)
//     and computes a crossbar matching.
//  2. Transmit: granted packets are popped. A pop leaves the room the
//     buffer publishes upstream as it was; the caller latches it
//     (buffer.Composed.PublishRoom) before the next cycle's arbitration.
//  3. Deliver/accept: the caller moves popped packets downstream; freed
//     slots become visible to arrivals.
//  4. Arrivals: the caller offers new packets to input ports; a packet
//     that does not fit is discarded (discarding protocol) or stays
//     upstream (blocking protocol).
package sw

import (
	"fmt"
	"math/bits"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/names"
	"damq/internal/obs"
	"damq/internal/packet"
)

// Protocol is the network flow-control discipline.
type Protocol int

const (
	// Discarding switches drop packets that arrive at a full buffer.
	Discarding Protocol = iota
	// Blocking switches prevent the upstream from sending into a full
	// buffer, propagating back-pressure.
	Blocking
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case Discarding:
		return "discarding"
	case Blocking:
		return "blocking"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// protocolNames lists the protocols in enum order for the shared parser.
var protocolNames = [...]string{"discarding", "blocking"}

// ParseProtocol converts "discarding" or "blocking" (any case) to a
// Protocol. The error wraps cfgerr.ErrBadProtocol.
func ParseProtocol(s string) (Protocol, error) {
	if i := names.Index(s, protocolNames[:]); i >= 0 {
		return Protocol(i), nil
	}
	return 0, fmt.Errorf("sw: unknown protocol %q (want %s): %w",
		s, names.List(protocolNames[:]), cfgerr.ErrBadProtocol)
}

// Config describes one switch.
type Config struct {
	Ports      int // n: number of input ports and of output ports
	BufferKind buffer.Kind
	Capacity   int // slots per input buffer
	Policy     arbiter.Policy
	// SharedPool makes all input ports share one storage group of
	// Ports*Capacity slots (buffer.NewSharedGroup) instead of owning
	// Capacity slots each. Requires a pooled kind (buffer.KindSharesPool).
	SharedPool bool
	// Sharing tunes the modern admission policies (DT/FB/BSHARE).
	Sharing buffer.Sharing
}

// bufferConfig is the per-input buffer geometry the switch constructs.
func (cfg Config) bufferConfig() buffer.Config {
	return buffer.Config{
		Kind:       cfg.BufferKind,
		NumOutputs: cfg.Ports,
		Capacity:   cfg.Capacity,
		Sharing:    cfg.Sharing,
	}
}

// Validate checks the config using the repo-wide sentinel-error
// convention (see internal/cfgerr): port-count errors wrap ErrBadPorts,
// buffer shape errors wrap ErrBadKind/ErrBadCapacity, policy errors
// wrap ErrBadPolicy, sharing errors wrap ErrBadSharing.
func (cfg Config) Validate() error {
	if cfg.Ports <= 0 || cfg.Ports > arbiter.MaxOutputs {
		return fmt.Errorf("sw: ports must be in [1, %d], got %d: %w", arbiter.MaxOutputs, cfg.Ports, cfgerr.ErrBadPorts)
	}
	if cfg.Policy != arbiter.Dumb && cfg.Policy != arbiter.Smart {
		return fmt.Errorf("sw: unknown policy %v: %w", cfg.Policy, cfgerr.ErrBadPolicy)
	}
	if cfg.SharedPool && !buffer.KindSharesPool(cfg.BufferKind) {
		return fmt.Errorf("sw: %v (policy %s) cannot span input ports as a shared pool: %w",
			cfg.BufferKind, cfg.BufferKind.PolicyName(), cfgerr.ErrBadSharing)
	}
	return cfg.bufferConfig().Validate()
}

// Switch is one n×n switch instance.
type Switch struct {
	// The fields the per-packet path reads come first, so an Offer or a
	// PopGrant touches one cache line of the switch.
	//
	// bufs are the input buffers, one per input port.
	bufs []*buffer.Composed
	// count tracks buffered packets across all input buffers so Len and
	// Empty are O(1). It is the occupancy counter on which the network
	// simulator's route phase skips empty switches, every switch every
	// cycle. It stays correct as long as buffer contents change only
	// through Offer, PopGrant, and Reset.
	count int
	// m holds the observability probes; nil (the default) keeps every
	// hot-path probe behind a never-taken branch.
	m   *Metrics
	arb *arbiter.Arbiter
	// snap is the arbiter's view of this cycle, refilled by Arbitrate:
	// queue lengths plus, per input, the bit masks of busy queues and of
	// heads the downstream room admits.
	snap arbiter.Snapshot
	// tick is set when the buffer kind's admission policy reads packet
	// ages (BSHARE), so clockless switches skip the Tick sweep.
	tick bool
	cfg  Config
}

// Metrics is the instrument set one observed switch maintains. Grant,
// conflict, and blocked-head counts are delegated to the arbiter; the
// refused-offer count is the switch's own admission signal (under
// discarding these are drops at this switch, under blocking they are
// stage-0 injection stalls — in-network heads are never offered while
// blocked). Fields may be nil individually.
type Metrics struct {
	Grants       *obs.Counter
	Conflicts    *obs.Counter
	BlockedHeads *obs.Counter
	OfferRefused *obs.Counter
}

// SetMetrics attaches (nil detaches) the switch's instrument set and
// forwards the arbitration counters to the arbiter. Cold path.
func (s *Switch) SetMetrics(m *Metrics) {
	s.m = m
	if m == nil {
		s.arb.SetMetrics(nil, nil, nil)
		return
	}
	s.arb.SetMetrics(m.Grants, m.Conflicts, m.BlockedHeads)
}

// New builds a switch. It returns an error for invalid buffer configs
// (e.g. SAMQ capacity not divisible by the port count).
func New(cfg Config) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Switch{
		cfg:  cfg,
		arb:  arbiter.New(cfg.Policy, cfg.Ports, cfg.Ports),
		snap: arbiter.NewSnapshot(cfg.Ports, cfg.Ports),
		tick: buffer.KindUsesClock(cfg.BufferKind),
	}
	if cfg.SharedPool {
		bufs, err := buffer.NewSharedGroup(cfg.bufferConfig(), cfg.Ports)
		if err != nil {
			return nil, fmt.Errorf("sw: shared pool: %w", err)
		}
		s.bufs = bufs
	} else {
		s.bufs = make([]*buffer.Composed, cfg.Ports)
		for i := range s.bufs {
			b, err := buffer.New(cfg.bufferConfig())
			if err != nil {
				return nil, fmt.Errorf("sw: input %d: %w", i, err)
			}
			s.bufs[i] = b
		}
	}
	for i, b := range s.bufs {
		s.snap.MaxReads[i] = b.MaxReadsPerCycle()
	}
	return s, nil
}

// Tick advances the clock of every age-reading buffer by one long cycle.
// Clockless kinds make it a no-op. The network simulator calls it from
// the inject phase — after the cycle's last admission — so ages, and
// the room buffers publish from them, change only between cycles, never
// mid-arbitration.
// Shared-pool views coordinate so the group clock advances once.
// damqvet:hotpath
func (s *Switch) Tick() {
	if !s.tick {
		return
	}
	for _, b := range s.bufs {
		b.Tick()
	}
}

// MustNew is New for known-good configs.
func MustNew(cfg Config) *Switch {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Ports returns n.
func (s *Switch) Ports() int { return s.cfg.Ports }

// Buffer exposes input i's buffer (for probes, tests, and statistics).
func (s *Switch) Buffer(i int) *buffer.Composed { return s.bufs[i] }

// Config returns the construction parameters.
func (s *Switch) Config() Config { return s.cfg }

// Len is the number of packets currently buffered in the whole switch.
func (s *Switch) Len() int { return s.count }

// Empty reports whether no packets are buffered anywhere in the switch.
func (s *Switch) Empty() bool { return s.count == 0 }

// Reset clears all buffers and arbitration state.
func (s *Switch) Reset() {
	for _, b := range s.bufs {
		b.Reset()
	}
	s.arb.Reset()
	s.count = 0
}

// AdvanceIdle fast-forwards the switch through cycles arbitration rounds
// in which it held no packets, reproducing exactly the arbiter state those
// empty rounds would have produced (the priority pointer advances once per
// round; nothing else changes). The network simulator skips empty
// switches in its route phase and calls this when a packet reaches a
// skipped switch — just after that packet was accepted, so the switch
// may be non-empty at call time. The caller asserts that the rounds
// being replayed themselves held no packets.
func (s *Switch) AdvanceIdle(cycles int64) {
	s.arb.AdvanceIdle(cycles)
}

// Downstream is a switch's view of the next stage under the blocking
// protocol: the admission room the next stage's input buffers publish
// (buffer.Composed.AttachRoom), the way the paper's hardware drives a
// flow-control line upstream instead of letting the sender read the
// buffer. A head packet is blocked when its slot count exceeds the room
// register it would be admitted under. The registers are latched at the
// clock edge: a pop downstream leaves them as they were until its owner
// republishes, so a switch arbitrating after a downstream pop in the
// same cycle still reads the room from before any packet moved.
type Downstream struct {
	// Room is the next stage's room registers: for each input line, its
	// buffer's row of outputs × Classes registers.
	Room []int32
	// Base[out] is the offset in Room of the row of the buffer that this
	// switch's output out feeds.
	Base []int32
	// Div is the next stage's route divisor: a packet for Dest leaves the
	// next switch on output Dest/Div%Ports.
	Div int
	// Classes is the room registers per output of the next stage's
	// buffers (buffer.Composed.RoomClasses).
	Classes int
}

// headBlocked reports whether the head packet of b's queue for out needs
// more slots than the room the downstream buffer publishes for its next
// hop and class. The queue must be busy.
// damqvet:hotpath
func (s *Switch) headBlocked(b *buffer.Composed, out int, d *Downstream) bool {
	p := b.Head(out)
	k := int(d.Base[out]) + p.Dest/d.Div%s.cfg.Ports*d.Classes + buffer.Class(p, d.Classes)
	return p.Slots > int(d.Room[k])
}

// fillSnapshot loads this cycle's queue lengths and masks into the
// arbiter snapshot. A busy queue is ready unless down is non-nil and its
// head does not fit the published room. Queue rows of empty inputs are
// left stale, since the arbiter skips rows whose Busy mask is 0.
// damqvet:hotpath
func (s *Switch) fillSnapshot(down *Downstream) {
	n := len(s.bufs)
	for i, b := range s.bufs {
		var busy, ready uint64
		if b.Len() > 0 {
			row := s.snap.QueueLen[i*n : (i+1)*n]
			b.QueueLens(row)
			for o := n - 1; o >= 0; o-- {
				busy = busy<<1 | uint64(-row[o])>>63 // bit o set when row[o] > 0
			}
			ready = busy
			if down != nil {
				for m := busy; m != 0; m &= m - 1 {
					o := bits.TrailingZeros64(m)
					if s.headBlocked(b, o, down) {
						ready &^= 1 << o
					}
				}
			}
		}
		s.snap.Busy[i] = busy
		s.snap.Ready[i] = ready
	}
}

// Arbitrate computes this cycle's matching, withholding heads that do
// not fit the room down publishes; a nil down means nothing ever blocks
// (discarding protocol, or final stage feeding sinks). grants is reused
// storage (pass nil to allocate).
// damqvet:hotpath
func (s *Switch) Arbitrate(down *Downstream, grants []arbiter.Grant) []arbiter.Grant {
	s.fillSnapshot(down)
	return s.arb.Arbitrate(&s.snap, grants)
}

// PopGrant removes and returns the packet named by a grant from Arbitrate.
// It panics if the grant no longer matches a head packet, which would mean
// the caller mutated buffers between Arbitrate and PopGrant. Like
// buffer.Composed.Pop it leaves the input's published room latched; the
// caller republishes it with Buffer(g.In).PublishRoom.
// damqvet:hotpath
func (s *Switch) PopGrant(g arbiter.Grant) *packet.Packet {
	p := s.bufs[g.In].Pop(g.Out)
	if p == nil {
		panic(fmt.Sprintf("sw: grant %+v does not match buffer state", g))
	}
	s.count--
	return p
}

// Offer presents packet p (already routed: p.OutPort set) to input port
// in. Under Discarding, a packet that does not fit is dropped and Offer
// reports accepted=false. Under Blocking, Offer also reports false but the
// caller is expected to retain the packet upstream.
// damqvet:hotpath
func (s *Switch) Offer(in int, p *packet.Packet) (accepted bool) {
	if !s.bufs[in].Offer(p) {
		if s.m != nil {
			if s.m.OfferRefused != nil {
				s.m.OfferRefused.Inc()
			}
		}
		return false
	}
	s.count++
	return true
}

// AttachRoom makes every input buffer publish its admission room into
// room, which holds Ports rows of Ports*RoomClasses registers, input 0's
// first. PopGrant leaves a row latched until its buffer's PublishRoom;
// see buffer.Composed.AttachRoom.
func (s *Switch) AttachRoom(room []int32) {
	n := len(room) / len(s.bufs)
	for i, b := range s.bufs {
		b.AttachRoom(room[i*n : (i+1)*n : (i+1)*n])
	}
}

// RoomClasses is the room registers per output of this switch's buffers.
func (s *Switch) RoomClasses() int { return s.bufs[0].RoomClasses() }

// Arbiter exposes the switch's crossbar arbiter for the checkpoint
// codec: its priority pointer and stale counters are the switch's only
// cross-cycle control state outside the buffers.
func (s *Switch) Arbiter() *arbiter.Arbiter { return s.arb }

// Buffers returns the switch's per-input buffer views, for the
// checkpoint codec (under a shared pool all views alias one group).
func (s *Switch) Buffers() []*buffer.Composed { return s.bufs }

// ResyncLen recomputes the cached switch-wide packet count after the
// buffers have been checkpoint-restored.
func (s *Switch) ResyncLen() {
	n := 0
	for _, b := range s.bufs {
		n += b.Len()
	}
	s.count = n
}
