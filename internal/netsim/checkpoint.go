// Checkpoint codec for the network simulator (DESIGN.md §13): Checkpoint
// serializes a complete mid-run Sim — cycle position, every slot pool's
// register state, buffered and source-queued packets with identities,
// RNG stream states, fault-injection position, measurement partials, and
// (when observed) instrument values — and RestoreSim rebuilds a Sim that
// continues byte-identically to the uninterrupted run, at any worker
// count. Everything derivable from the config is rebuilt by New, not
// stored: topology, shard partition, downstream views, scratch buffers,
// and the packet allocators' free lists. The published room is derived
// from the restored pools (buffer.ResyncAfterRestore republishes it).
// The scratch (pending grants, outboxes) is dead at cycle boundaries,
// which is where checkpoints are taken.
//
// The format is a table of sections, each one walk function over the
// Sim's state that Checkpoint runs encoding and RestoreSim runs decoding
// (checkpoint.Codec), so every field order is written down once.
//
// Corrupted streams are rejected with errors wrapping
// cfgerr.ErrBadCheckpoint (or cfgerr.ErrCheckpointVersion for version
// skew), never a panic: every count, index, and register decoded here is
// validated against the geometry rebuilt from the config before any
// structure walks it.
package netsim

import (
	"fmt"
	"io"

	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/checkpoint"
	"damq/internal/fault"
	"damq/internal/obs"
	"damq/internal/packet"
	"damq/internal/rng"
	"damq/internal/stats"
	"damq/internal/sw"
	"damq/internal/traffic"
)

// Section tags of the checkpoint payload, in stream order. Faults and
// observer sections are present only when the corresponding subsystem is
// attached, so a fault-free unobserved checkpoint has exactly five
// sections.
const (
	secConfig   uint8 = 1
	secCore     uint8 = 2
	secSwitches uint8 = 3
	secSources  uint8 = 4
	secShards   uint8 = 5
	secFaults   uint8 = 6
	secObserver uint8 = 7
)

// pktWireSize is the encoded size of one packet body, the unit Count
// uses to bound packet-list lengths against the remaining payload.
const pktWireSize = 9*8 + 1

// Delivery is the identity tuple of one measured delivery, logged when
// RecordDeliveries is on. The torture tests compare delivery logs of a
// restored run against the uninterrupted twin's tail, which pins not
// just the aggregate metrics but which packet arrived where and when.
type Delivery struct {
	ID          uint64
	Source      int
	Dest        int
	Born        int64
	Injected    int64
	DeliveredAt int64
}

// RecordDeliveries toggles per-delivery identity logging. Off by default:
// the log grows linearly with the measured run. The flag is an execution
// knob like Workers and is not part of a checkpoint.
func (s *Sim) RecordDeliveries(on bool) { s.recordDeliv = on }

// Deliveries returns the logged measured deliveries, merged in shard
// order (the same topology-determined order Collect merges partials in,
// so the sequence is identical at every worker count).
func (s *Sim) Deliveries() []Delivery {
	var out []Delivery
	for _, sh := range s.shards {
		out = append(out, sh.deliv...)
	}
	return out
}

// Measured returns the number of measuring Steps taken so far.
func (s *Sim) Measured() int64 { return s.measured }

// Config returns the simulation's resolved configuration — after a
// restore, the checkpointed one (with any Workers override applied), so
// CLIs can describe a resumed run without re-supplying its flags.
func (s *Sim) Config() Config { return s.cfg }

// ckptErr wraps a restore-time structural failure in the checkpoint
// sentinel so callers classify with errors.Is(err, cfgerr.ErrBadCheckpoint).
func ckptErr(format string, args ...any) error {
	return fmt.Errorf("netsim: "+format+": %w", append(args, cfgerr.ErrBadCheckpoint)...)
}

// sections is the checkpoint layout, in stream order: one walk per
// section, run encoding by Checkpoint and decoding by RestoreSimOpts. A
// section with a present test is optional: Checkpoint writes it only
// when the test holds, and restore walks it only when the stream has it.
var sections = []struct {
	tag     uint8
	walk    func(*Sim, *checkpoint.Codec) error
	present func(*Sim) bool
}{
	{secConfig, (*Sim).walkConfig, nil},
	{secCore, (*Sim).walkCore, nil},
	{secSwitches, (*Sim).walkSwitches, nil},
	{secSources, (*Sim).walkSources, nil},
	{secShards, (*Sim).walkShards, nil},
	{secFaults, (*Sim).walkFaults, func(s *Sim) bool { return s.flt != nil }},
	{secObserver, (*Sim).walkObserver, func(s *Sim) bool { return s.metrics != nil }},
}

// Checkpoint writes the simulation's complete state to w. Call it only
// between cycles (never from another goroutine mid-Step); Run-level
// checkpointing (RunCtxCheckpoint) does exactly that. The stream is
// self-describing and versioned; it does not capture the Workers knob's
// effect (there is none — results are byte-identical at every worker
// count), the observer attachment itself, or the delivery log.
func (s *Sim) Checkpoint(w io.Writer) error {
	c := checkpoint.NewEncoderSize(s.ckptSize)
	for _, sec := range sections {
		if sec.present == nil || sec.present(s) {
			c.Section(sec.tag, func(c *checkpoint.Codec) error { return sec.walk(s, c) })
		}
	}
	s.ckptSize = c.Len()
	return c.Emit(w)
}

// walkInt walks an int-kinded field as an int.
func walkInt[T ~int](c *checkpoint.Codec, p *T) {
	v := int(*p)
	if c.Int(&v); c.Decoding() {
		*p = T(v)
	}
}

// walkList walks a count-prefixed list whose elements encode to at
// least minSize bytes. Decoding replaces *p with a fresh list, nil when
// empty, and walks into its zero elements.
func walkList[T any](c *checkpoint.Codec, p *[]T, minSize int, elem func(*T)) {
	n := len(*p)
	if c.Count(&n, minSize); c.Decoding() {
		*p = nil
		if n > 0 {
			*p = make([]T, n)
		}
	}
	for i := range *p {
		elem(&(*p)[i])
	}
}

// walkConfig walks the resolved configuration. Restore walks it into a
// bare Sim and builds the real one from it.
func (s *Sim) walkConfig(c *checkpoint.Codec) error {
	cfg := &s.cfg
	c.Int(&cfg.Radix)
	c.Int(&cfg.Inputs)
	walkInt(c, &cfg.BufferKind)
	c.Int(&cfg.Capacity)
	walkInt(c, &cfg.Policy)
	walkInt(c, &cfg.Protocol)
	c.Int(&cfg.ClocksPerCycle)
	walkInt(c, &cfg.Traffic.Kind)
	c.F64(&cfg.Traffic.Load)
	c.F64(&cfg.Traffic.HotFraction)
	c.Int(&cfg.Traffic.HotDest)
	c.Ints(&cfg.Traffic.Perm)
	c.F64(&cfg.Traffic.MeanBurst)
	c.Int(&cfg.Traffic.MinSlots)
	c.Int(&cfg.Traffic.MaxSlots)
	c.I64(&cfg.WarmupCycles)
	c.I64(&cfg.MeasureCycles)
	c.U64(&cfg.Seed)
	c.Int(&cfg.Workers)
	c.Bool(&cfg.SharedPool)
	c.F64(&cfg.Sharing.Alpha)
	c.Int(&cfg.Sharing.Classes)
	c.I64(&cfg.Sharing.DelayTarget)
	return c.Err()
}

// walkCore walks the clock position and the source-backlog summary.
func (s *Sim) walkCore(c *checkpoint.Codec) error {
	c.I64(&s.cycle)
	c.I64(&s.warmupBoundary)
	c.I64(&s.measured)
	if err := walkSummary(c, &s.backlog); err != nil {
		return ckptErr("backlog summary: %v", err)
	}
	if err := c.Err(); err != nil {
		return err
	}
	if s.cycle < 0 || s.measured < 0 || s.measured > s.cycle ||
		s.warmupBoundary < 0 || s.warmupBoundary > s.cycle {
		return ckptErr("impossible clock state (cycle %d, measured %d, boundary %d)",
			s.cycle, s.measured, s.warmupBoundary)
	}
	if s.backlog.N() != s.measured {
		return ckptErr("backlog summary has %d samples over %d measured cycles", s.backlog.N(), s.measured)
	}
	return nil
}

// walkSummary walks a running summary's state. Decoding loads it once
// read and returns Load's validation error; stream errors stay on c.
func walkSummary(c *checkpoint.Codec, sum *stats.Summary) error {
	st := sum.Save()
	c.I64(&st.N)
	c.F64(&st.Mean)
	c.F64(&st.M2)
	c.F64(&st.Min)
	c.F64(&st.Max)
	if !c.Decoding() || c.Err() != nil {
		return nil
	}
	return sum.Load(st)
}

// walkPacket walks one packet body.
func walkPacket(c *checkpoint.Codec, p *packet.Packet) {
	c.U64(&p.ID)
	c.Int(&p.Source)
	c.Int(&p.Dest)
	c.Int(&p.Slots)
	c.I64(&p.Born)
	c.I64(&p.Injected)
	c.Bool(&p.Hot)
	c.Int(&p.OutPort)
	c.Int(&p.Bytes)
	c.I64(&p.ReadyAt)
}

// walkPackets walks a count-prefixed packet list; decoding allocates the
// packets it reads.
func walkPackets(c *checkpoint.Codec, ps *[]*packet.Packet) {
	walkList(c, ps, pktWireSize, func(p **packet.Packet) {
		if *p == nil {
			*p = new(packet.Packet)
		}
		walkPacket(c, *p)
	})
}

// checkPacket validates a restored packet's fields the simulator indexes
// with: Source feeds FirstStageSwitch, OutPort names a crossbar output,
// and Slots is charged against a maxSlots-slot pool. A packet buffered at
// stage (stage >= 0) must also wait for the output its Dest routes
// through there; one queued for another output would leave the network
// at the wrong memory module and still count as delivered.
func (s *Sim) checkPacket(p *packet.Packet, maxSlots, stage int) error {
	if p.Source < 0 || p.Source >= s.cfg.Inputs || p.Dest < 0 || p.Dest >= s.cfg.Inputs {
		return ckptErr("packet %d addressed %d->%d outside the %d-input network",
			p.ID, p.Source, p.Dest, s.cfg.Inputs)
	}
	if p.Slots < 1 || p.Slots > maxSlots {
		return ckptErr("packet %d occupies %d slots of a %d-slot pool", p.ID, p.Slots, maxSlots)
	}
	if p.OutPort < 0 || p.OutPort >= s.cfg.Radix {
		return ckptErr("packet %d routed to output %d of a radix-%d switch", p.ID, p.OutPort, s.cfg.Radix)
	}
	if p.Injected < -1 || p.Bytes < 0 {
		return ckptErr("packet %d has impossible bookkeeping (injected %d, %d bytes)",
			p.ID, p.Injected, p.Bytes)
	}
	if stage >= 0 && p.OutPort != s.top.RouteDigit(p.Dest, stage) {
		return ckptErr("packet %d for destination %d waits for output %d at stage %d, which routes it to output %d",
			p.ID, p.Dest, p.OutPort, stage, s.top.RouteDigit(p.Dest, stage))
	}
	return nil
}

// walkRng walks one RNG stream's state; decoding loads it.
func walkRng(c *checkpoint.Codec, src *rng.Source, what string) error {
	st := src.State()
	for i := range st {
		c.U64(&st[i])
	}
	if !c.Decoding() || c.Err() != nil {
		return c.Err()
	}
	if err := src.SetState(st); err != nil {
		return ckptErr("%s stream: %v", what, err)
	}
	return nil
}

// rngSourced is the accessor every RNG-backed traffic pattern exposes.
type rngSourced interface{ Src() *rng.Source }

// walkSwitches walks every switch in stage order: its arbiter state, then
// the slot pools behind it.
func (s *Sim) walkSwitches(c *checkpoint.Codec) error {
	for st := range s.stages {
		for si, swc := range s.stages[st] {
			ast := swc.Arbiter().SaveState()
			c.Int(&ast.Prio)
			c.I64s(&ast.Stale)
			if c.Decoding() && c.Err() == nil {
				if err := swc.Arbiter().LoadState(ast); err != nil {
					return ckptErr("stage %d switch %d arbiter: %v", st, si, err)
				}
			}
			if err := s.walkPools(c, st, si, swc); err != nil {
				return err
			}
		}
	}
	return c.Err()
}

// walkPools walks the slot-pool state behind one switch: one pool when
// the switch shares storage across its inputs, one per input port
// otherwise. Packet bodies ride inside the pool state, each exactly once
// (multi-slot packets occupy several slots but serialize once).
func (s *Sim) walkPools(c *checkpoint.Codec, stage, si int, swc *sw.Switch) error {
	pools, maxSlots := swc.Ports(), s.cfg.Capacity
	if s.cfg.SharedPool {
		pools, maxSlots = 1, s.cfg.Capacity*s.cfg.Radix
	}
	for in := 0; in < pools; in++ {
		sp := swc.Buffer(in).Pool()
		st := &buffer.SlotPoolState{}
		if !c.Decoding() {
			st = sp.SaveState()
		}
		c.I32s(&st.Next)
		c.I32s(&st.Owner)
		c.I32(&st.FreeHead)
		c.I32(&st.FreeTail)
		c.Int(&st.FreeCount)
		c.I32s(&st.QHead)
		c.I32s(&st.QTail)
		c.Ints(&st.QPkts)
		c.Ints(&st.QSlots)
		hasQuar := st.Quar != nil
		if c.Bool(&hasQuar); hasQuar {
			c.Bytes(&st.Quar)
		}
		c.Int(&st.QuarCount)
		if c.Bool(&st.HasClock); st.HasClock {
			c.I64s(&st.Stamp)
			c.I64(&st.Now)
		}
		walkPackets(c, &st.Packets)
		if err := c.Err(); err != nil {
			return err
		}
		if !c.Decoding() {
			continue
		}
		for _, p := range st.Packets {
			if err := s.checkPacket(p, maxSlots, stage); err != nil {
				return err
			}
		}
		if err := sp.LoadState(st); err != nil {
			return ckptErr("stage %d switch %d input %d: %v", stage, si, in, err)
		}
		views := swc.Buffers()[in : in+1]
		if s.cfg.SharedPool {
			views = swc.Buffers()
		}
		if err := buffer.ResyncAfterRestore(views); err != nil {
			return ckptErr("stage %d switch %d input %d: %v", stage, si, in, err)
		}
	}
	return nil
}

// walkSources walks the blocking protocol's unbounded source queues: per
// network input, the waiting packets front to back. Under discarding
// every queue is empty and the section is a run of zero counts.
func (s *Sim) walkSources(c *checkpoint.Codec) error {
	// A source-queued packet's size is only charged at admission (where
	// the buffer bounds it); the structural requirement here is the queue
	// index, so the slot bound is the loosest the config can generate.
	slotCap := max(s.cfg.Capacity, s.cfg.Traffic.MaxSlots, s.cfg.Traffic.MinSlots)
	for i := range s.srcQ {
		q := &s.srcQ[i]
		ps := make([]*packet.Packet, q.Len())
		for j := range ps {
			ps[j] = q.At(j)
		}
		walkPackets(c, &ps)
		if !c.Decoding() || c.Err() != nil {
			continue
		}
		for _, p := range ps {
			if err := s.checkPacket(p, slotCap, -1); err != nil {
				return err
			}
			if p.Source != i {
				return ckptErr("packet %d queued at source %d claims source %d", p.ID, i, p.Source)
			}
			q.PushBack(p)
		}
	}
	return c.Err()
}

// walkShards walks each shard's RNG streams (traffic, burst registers,
// packet lengths, phase), its counters, its measurement partial, and its
// per-stage arbitration stamps.
func (s *Sim) walkShards(c *checkpoint.Codec) error {
	n := len(s.shards)
	if c.Int(&n); c.Err() == nil && n != len(s.shards) {
		return ckptErr("%d shard records for a %d-shard topology", n, len(s.shards))
	}
	for _, sh := range s.shards {
		pat, ok := sh.pattern.(rngSourced)
		if !ok {
			return ckptErr("%T traffic pattern cannot be checkpointed", sh.pattern)
		}
		if err := walkRng(c, pat.Src(), "traffic"); err != nil {
			return err
		}
		if b, ok := sh.pattern.(*traffic.Bursty); ok {
			rem, dst := b.BurstState()
			c.Ints(&rem)
			c.Ints(&dst)
			if c.Decoding() && c.Err() == nil {
				if err := b.SetBurstState(rem, dst); err != nil {
					return ckptErr("shard %d burst registers: %v", sh.id, err)
				}
			}
		}
		if ul, ok := sh.lengths.(traffic.UniformLengths); ok {
			if err := walkRng(c, ul.Src, "length"); err != nil {
				return err
			}
		}
		if err := walkRng(c, sh.phase, "phase"); err != nil {
			return err
		}
		issued := sh.alloc.Issued()
		if c.U64(&issued); c.Decoding() {
			sh.alloc.SetIssued(issued)
		}
		c.I64(&sh.inFlight)
		c.I64(&sh.srcBacklog)
		c.I64(&sh.faulted)
		if sh.srcBacklog < 0 || sh.faulted < 0 {
			return ckptErr("shard %d has negative backlog or fault count", sh.id)
		}
		if err := walkPartial(c, &sh.partial, sh.id); err != nil {
			return err
		}
		for st, stamps := range sh.lastArb {
			arb := stamps
			c.I64s(&arb)
			if !c.Decoding() || c.Err() != nil {
				continue
			}
			if len(arb) != len(stamps) {
				return ckptErr("shard %d stage %d has %d arbitration stamps for %d switches",
					sh.id, st, len(arb), len(stamps))
			}
			// Checkpoints fall between cycles: no switch can have
			// been arbitrated in the cycle that has not run yet.
			for i, v := range arb {
				if v < -1 || v >= s.cycle {
					return ckptErr("shard %d stage %d switch %d arbitrated at impossible cycle %d",
						sh.id, st, i, v)
				}
			}
			copy(stamps, arb)
		}
	}
	return c.Err()
}

// walkPartial walks one shard's measurement partial: packet counters,
// latency and occupancy summaries, and the latency histogram.
func walkPartial(c *checkpoint.Codec, r *Result, shardID int) error {
	for _, n := range []*int64{&r.Generated, &r.Injected, &r.Delivered,
		&r.DiscardedAtEntry, &r.DiscardedInNet, &r.FaultedInNet} {
		if c.I64(n); *n < 0 {
			return ckptErr("shard %d has a negative packet counter", shardID)
		}
	}
	sums := []*stats.Summary{
		&r.LatencyFromBorn, &r.LatencyFromInjection,
		&r.HotLatency, &r.ColdLatency, &r.Occupancy,
	}
	for st := range r.StageOccupancy {
		sums = append(sums, &r.StageOccupancy[st])
	}
	for _, sum := range sums {
		if err := walkSummary(c, sum); err != nil {
			return ckptErr("shard %d summary: %v", shardID, err)
		}
	}
	h := r.LatencyHist.Save()
	c.F64(&h.Width)
	c.I64s(&h.Counts)
	c.I64(&h.Overflow)
	c.I64(&h.Total)
	c.F64(&h.Sum)
	if !c.Decoding() || c.Err() != nil {
		return c.Err()
	}
	if err := r.LatencyHist.Load(h); err != nil {
		return ckptErr("shard %d latency histogram: %v", shardID, err)
	}
	return nil
}

// walkFaults walks the resolved fault config and the injection position.
// Decoding re-arms fault injection from the config (the schedule seed was
// resolved at the original SetFaults, so no derivation re-runs) and
// fast-forwards the slot-failure schedule past the events the
// checkpointed run already applied — the quarantined slots themselves
// ride in the pool states.
func (s *Sim) walkFaults(c *checkpoint.Codec) error {
	var fc fault.Config
	var next int
	var quarSlots int64
	if s.flt != nil {
		fc, next, quarSlots = s.flt.cfg, s.flt.next, s.flt.quarSlots
	}
	c.U64(&fc.Seed)
	c.F64(&fc.SlotStuckRate)
	c.F64(&fc.WireCorruptRate)
	c.F64(&fc.LinkTransientRate)
	c.F64(&fc.LinkDeadRate)
	c.Int(&fc.RetryLimit)
	c.Int(&fc.RetryBackoff)
	c.Int(&next)
	c.I64(&quarSlots)
	if !c.Decoding() || c.Err() != nil {
		return c.Err()
	}
	if err := s.armFaults(fc); err != nil {
		return ckptErr("fault config: %v", err)
	}
	if s.flt == nil {
		return ckptErr("fault section present but the stored config is disabled")
	}
	if next < 0 || next > len(s.flt.events) {
		return ckptErr("fault schedule position %d outside the %d-event schedule", next, len(s.flt.events))
	}
	if quarSlots < 0 || quarSlots < int64(next) {
		return ckptErr("%d quarantined slots with %d slot faults applied", quarSlots, next)
	}
	s.flt.next = next
	s.flt.quarSlots = quarSlots
	return nil
}

// obsState carries a checkpoint's instrument values on a restored Sim
// until an observer attaches (SetObserver applies and clears it). The
// names and histogram shapes were validated against this simulation's
// instrument set at restore time, so apply cannot fail or panic.
type obsState struct {
	interval   int64
	lastSample int64
	counters   []namedInt
	gauges     []namedInt
	hists      []histState
	series     []obs.IntervalRecord
}

type namedInt struct {
	name string
	val  int64
}

type histState struct {
	name     string
	width    int64
	buckets  []int64
	overflow int64
	total    int64
	sum      int64
}

func (st *obsState) apply(s *Sim) {
	m := s.metrics
	r := m.observer.Registry()
	for _, c := range st.counters {
		r.Counter(c.name).Set(c.val)
	}
	for _, g := range st.gauges {
		r.Gauge(g.name).Set(g.val)
	}
	for _, h := range st.hists {
		// Shape and totals were pre-validated; Restore cannot fail.
		_ = r.Histogram(h.name, len(h.buckets), h.width).Restore(h.buckets, h.overflow, h.total, h.sum)
	}
	m.observer.SetInterval(st.interval)
	m.observer.RestoreSeries(st.series)
	m.lastSample = st.lastSample
}

// captureObs reads the attached observer's instrument values into an
// obsState for walkObserver to encode.
func (s *Sim) captureObs() *obsState {
	o := s.metrics.observer
	r := o.Registry()
	st := &obsState{interval: o.Interval(), lastSample: s.metrics.lastSample, series: o.Series()}
	for _, n := range r.CounterNames() {
		st.counters = append(st.counters, namedInt{name: n, val: r.Counter(n).Value()})
	}
	for _, n := range r.GaugeNames() {
		st.gauges = append(st.gauges, namedInt{name: n, val: r.Gauge(n).Value()})
	}
	for _, n := range r.HistogramNames() {
		h, _ := r.LookupHistogram(n)
		st.hists = append(st.hists, histState{name: n, width: h.Width(), buckets: h.Buckets(),
			overflow: h.Overflow(), total: h.Total(), sum: h.Sum()})
	}
	return st
}

// walkObserver walks the observer's instrument values: interval, counters,
// gauges, histograms, and the interval series. Decoding validates them
// and parks them on the Sim until an observer attaches.
func (s *Sim) walkObserver(c *checkpoint.Codec) error {
	st := &obsState{}
	if !c.Decoding() {
		st = s.captureObs()
	}
	return s.walkObsState(c, st)
}

// walkObsState is walkObserver's codec walk over an explicit state.
func (s *Sim) walkObsState(c *checkpoint.Codec, st *obsState) error {
	c.I64(&st.interval)
	c.I64(&st.lastSample)
	named := func(v *namedInt) {
		c.String(&v.name)
		c.I64(&v.val)
	}
	walkList(c, &st.counters, 9, named)
	walkList(c, &st.gauges, 9, named)
	walkList(c, &st.hists, 9, func(h *histState) {
		c.String(&h.name)
		c.I64(&h.width)
		c.I64s(&h.buckets)
		c.I64(&h.overflow)
		c.I64(&h.total)
		c.I64(&h.sum)
	})
	walkList(c, &st.series, 9*8, func(rec *obs.IntervalRecord) {
		for _, v := range []*int64{&rec.Cycle, &rec.Generated, &rec.Injected, &rec.Delivered,
			&rec.Discarded, &rec.InFlight, &rec.Backlog, &rec.LatencySum, &rec.LatencyCount} {
			c.I64(v)
		}
	})
	if !c.Decoding() || c.Err() != nil {
		return c.Err()
	}
	if err := s.validateObsState(st); err != nil {
		return err
	}
	s.pendingObs = st
	return nil
}

// validateObsState checks a decoded observer section against the
// instrument set this simulation registers: unknown names, mismatched
// histogram shapes, or inconsistent totals are corruption. Passing means
// obsState.apply cannot fail, whichever observer later attaches.
func (s *Sim) validateObsState(st *obsState) error {
	counters := map[string]bool{
		MetricGenerated: true, MetricInjected: true, MetricDelivered: true,
		MetricDiscardedEntry: true, MetricDiscardedNet: true,
		MetricGrants: true, MetricConflicts: true,
		MetricBlockedHeads: true, MetricOfferRefused: true,
	}
	gauges := map[string]bool{MetricInFlight: true, MetricSourceBacklog: true}
	for stage := range s.stages {
		gauges[StageOccupancyMetric(stage)] = true
	}
	type shape struct {
		buckets int
		width   int64
	}
	c := int64(s.cfg.ClocksPerCycle)
	hists := map[string]shape{
		MetricQueueDepth:      {s.cfg.Capacity + 1, 1},
		MetricLatencyBorn:     {4096, c},
		MetricLatencyInjected: {4096, c},
	}
	if buffer.KindModern(s.cfg.BufferKind) || s.cfg.SharedPool {
		poolCap := s.cfg.Capacity
		if s.cfg.SharedPool {
			poolCap *= s.cfg.Radix
		}
		hists[MetricPoolSlotsUsed] = shape{poolCap + 1, 1}
		counters[MetricPolicyRefused] = true
	}
	if s.flt != nil {
		counters[fault.MetricLinkDrops] = true
		counters[fault.MetricSlotsQuarantined] = true
	}
	for _, cv := range st.counters {
		if !counters[cv.name] {
			return ckptErr("checkpointed counter %q is not one this simulation registers", cv.name)
		}
		if cv.val < 0 {
			return ckptErr("checkpointed counter %q is negative", cv.name)
		}
	}
	for _, gv := range st.gauges {
		if !gauges[gv.name] {
			return ckptErr("checkpointed gauge %q is not one this simulation registers", gv.name)
		}
	}
	for _, hv := range st.hists {
		want, ok := hists[hv.name]
		if !ok {
			return ckptErr("checkpointed histogram %q is not one this simulation registers", hv.name)
		}
		if len(hv.buckets) != want.buckets || hv.width != want.width {
			return ckptErr("checkpointed histogram %q has shape %dx%d, this simulation registers %dx%d",
				hv.name, len(hv.buckets), hv.width, want.buckets, want.width)
		}
		if err := obs.CheckContents(hv.width, hv.buckets, hv.overflow, hv.total, hv.sum); err != nil {
			return ckptErr("checkpointed histogram %q: %v", hv.name, err)
		}
	}
	if st.interval < 0 {
		return ckptErr("negative observer interval %d", st.interval)
	}
	// A record cycle past the clock, or a lastSample ahead of it, would
	// silently suppress the resumed run's interval records.
	if st.lastSample < -1 || st.lastSample > s.cycle {
		return ckptErr("last interval sample at cycle %d outside [-1, %d]", st.lastSample, s.cycle)
	}
	for i, rec := range st.series {
		if i > 0 && rec.Cycle <= st.series[i-1].Cycle {
			return ckptErr("interval record %d at cycle %d does not follow cycle %d", i, rec.Cycle, st.series[i-1].Cycle)
		}
		if rec.Cycle > s.cycle {
			return ckptErr("interval record %d at cycle %d is past the checkpoint's cycle %d", i, rec.Cycle, s.cycle)
		}
	}
	return nil
}

// checkpointSanity bounds a decoded config's geometry before New builds
// it. New's own validation is semantic (power-of-radix widths, policy
// compatibility); these caps are the restore path's defense against a
// corrupted stream that happens to decode into a structurally valid but
// astronomically large topology — the allocation must be refused as
// corruption, not attempted. Every cap sits far above the largest
// configuration the experiments run (the README tour's 1024×1024 network
// uses ~20K slots; the cap allows 4M).
func (c Config) checkpointSanity() error {
	c = c.withDefaults()
	if c.Radix < 2 || c.Radix > 256 || c.Inputs < c.Radix || c.Inputs > 1<<16 {
		return ckptErr("implausible topology (%d inputs, radix %d)", c.Inputs, c.Radix)
	}
	if c.Capacity < 1 || c.Capacity > 1<<12 {
		return ckptErr("implausible buffer capacity %d", c.Capacity)
	}
	if c.ClocksPerCycle < 1 || c.ClocksPerCycle > 1<<16 {
		return ckptErr("implausible clocks-per-cycle %d", c.ClocksPerCycle)
	}
	if c.WarmupCycles < 0 || c.MeasureCycles < 0 {
		return ckptErr("negative run length (%d warmup, %d measured)", c.WarmupCycles, c.MeasureCycles)
	}
	if c.Sharing.Classes < 0 || c.Sharing.Classes > 1<<12 {
		return ckptErr("implausible class count %d", c.Sharing.Classes)
	}
	if c.Traffic.MinSlots < 0 || c.Traffic.MinSlots > 1<<12 ||
		c.Traffic.MaxSlots < 0 || c.Traffic.MaxSlots > 1<<12 {
		return ckptErr("implausible packet sizes (%d..%d slots)", c.Traffic.MinSlots, c.Traffic.MaxSlots)
	}
	stages := 0
	for n := 1; n < c.Inputs && stages <= 16; n *= c.Radix {
		stages++
	}
	if slots := stages * (c.Inputs / c.Radix) * c.Radix * c.Capacity; slots > 1<<22 {
		return ckptErr("topology implies %d buffer slots, over the restore cap", slots)
	}
	return nil
}

// RestoreOpts adjusts how RestoreSimOpts rebuilds the simulation.
type RestoreOpts struct {
	// Workers overrides the checkpointed Workers knob when WorkersSet is
	// true. The shard partition is a pure function of the topology, so a
	// checkpoint taken at any worker count restores at any other with
	// byte-identical results.
	Workers    int
	WorkersSet bool
}

// RestoreSim reads a checkpoint written by Checkpoint and rebuilds the
// simulation at the exact cycle it was captured: continuing it (Run,
// RunCtx, Step) produces byte-identical results to the uninterrupted
// run. Corrupted or truncated input yields an error wrapping
// cfgerr.ErrBadCheckpoint (cfgerr.ErrCheckpointVersion for a version
// mismatch), never a panic. An observed run's instrument values are
// carried over and applied when SetObserver attaches an observer.
func RestoreSim(r io.Reader) (*Sim, error) {
	return RestoreSimOpts(r, RestoreOpts{})
}

// RestoreSimOpts is RestoreSim with execution-knob overrides.
func RestoreSimOpts(r io.Reader, opts RestoreOpts) (*Sim, error) {
	c, err := checkpoint.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	// The config section is walked into a bare Sim; New builds the real
	// one, whose geometry every later section is validated against.
	bare := &Sim{}
	if !c.Section(secConfig, bare.walkConfig) {
		return nil, missingSection(c, secConfig)
	}
	cfg := bare.cfg
	if opts.WorkersSet {
		cfg.Workers = opts.Workers
	}
	if err := cfg.checkpointSanity(); err != nil {
		return nil, err
	}
	s, err := New(cfg)
	if err != nil {
		return nil, ckptErr("checkpointed config: %v", err)
	}
	ok := false
	defer func() {
		if !ok {
			s.Close()
		}
	}()
	for _, sec := range sections[1:] {
		present := c.Section(sec.tag, func(c *checkpoint.Codec) error { return sec.walk(s, c) })
		if !present && sec.present == nil {
			return nil, missingSection(c, sec.tag)
		}
	}
	// Done also rejects what no walk claimed: unknown, repeated, or
	// out-of-order sections.
	if err := c.Done(); err != nil {
		return nil, err
	}
	if err := s.resyncAfterRestore(); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

// missingSection reports why a mandatory section was not walked: the
// decoder's sticky error, or the section's absence.
func missingSection(c *checkpoint.Codec, tag uint8) error {
	if err := c.Err(); err != nil {
		return err
	}
	return ckptErr("checkpoint is missing section %d", tag)
}

// resyncAfterRestore rebuilds the switch occupancy counters, which the
// arbitrate phase reads to skip empty switches, and cross-checks the
// global conservation invariants that tie the decoded sections together:
// the shards' in-flight counters must sum to the packets actually
// buffered, and each shard's backlog counter must equal its own source
// queues' lengths.
func (s *Sim) resyncAfterRestore() error {
	var buffered, inFlight int64
	for st := range s.stages {
		for _, swc := range s.stages[st] {
			swc.ResyncLen()
			buffered += int64(swc.Len())
		}
	}
	for _, sh := range s.shards {
		inFlight += sh.inFlight
		var backlog int64
		for _, src := range sh.srcs {
			backlog += int64(s.srcQ[src].Len())
		}
		if backlog != sh.srcBacklog {
			return ckptErr("shard %d backlog counter %d disagrees with %d queued packets",
				sh.id, sh.srcBacklog, backlog)
		}
	}
	if inFlight != buffered {
		return ckptErr("in-flight counters sum to %d but %d packets are buffered", inFlight, buffered)
	}
	return nil
}
