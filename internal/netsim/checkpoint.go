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
// The scratch (grants, popped-buffer lists, outboxes) is dead at cycle
// boundaries, which is where checkpoints are taken; so is the latch of
// popped room, which every inject phase completes.
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
	"math"

	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/checkpoint"
	"damq/internal/fault"
	"damq/internal/obs"
	"damq/internal/packet"
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
	{secObserver, (*Sim).walkObserver, func(s *Sim) bool { return s.metrics != nil || s.pendingObs != nil }},
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
// bare Sim and builds the real one from it. Two slots hold model
// constants that were once config fields: encoding writes
// ClocksPerCycle and traffic.HotModule there, and decoding rejects any
// other value.
func (s *Sim) walkConfig(c *checkpoint.Codec) error {
	cfg := &s.cfg
	clocks, hot := ClocksPerCycle, traffic.HotModule
	c.Int(&cfg.Radix)
	c.Int(&cfg.Inputs)
	walkInt(c, &cfg.BufferKind)
	c.Int(&cfg.Capacity)
	walkInt(c, &cfg.Policy)
	walkInt(c, &cfg.Protocol)
	c.Int(&clocks)
	walkInt(c, &cfg.Traffic.Kind)
	c.F64(&cfg.Traffic.Load)
	c.F64(&cfg.Traffic.HotFraction)
	c.Int(&hot)
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
	if err := c.Err(); err != nil {
		return err
	}
	if clocks != ClocksPerCycle {
		return ckptErr("clocks-per-cycle slot holds %d, the model fixes %d", clocks, ClocksPerCycle)
	}
	if hot != traffic.HotModule {
		return ckptErr("hot-module slot holds %d, the model fixes %d", hot, traffic.HotModule)
	}
	return nil
}

// walkCore walks the clock position and the source-backlog summary.
func (s *Sim) walkCore(c *checkpoint.Codec) error {
	c.I64(&s.cycle)
	c.I64(&s.warmupBoundary)
	c.I64(&s.measured)
	if err := s.backlog.Walk(c); err != nil {
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

// walkPackets walks a count-prefixed packet list; decoding allocates the
// packets it reads.
func walkPackets(c *checkpoint.Codec, ps *[]*packet.Packet) {
	walkList(c, ps, packet.EncodedSize, func(p **packet.Packet) {
		if *p == nil {
			*p = new(packet.Packet)
		}
		(*p).Walk(c)
	})
}

// checkPacket validates a restored packet's fields the simulator indexes
// with: Source feeds FirstStageSwitch, OutPort names a crossbar output,
// and Slots is charged against a maxSlots-slot pool. A packet buffered at
// stage (stage >= 0) must also wait for the output its Dest routes
// through there; one queued for another output would leave the network
// at the wrong memory module and still count as delivered. The caller
// wraps the error with the packet's place in the stream.
func (s *Sim) checkPacket(p *packet.Packet, maxSlots, stage int) error {
	if p.Source < 0 || p.Source >= s.cfg.Inputs || p.Dest < 0 || p.Dest >= s.cfg.Inputs {
		return fmt.Errorf("packet %d addressed %d->%d outside the %d-input network",
			p.ID, p.Source, p.Dest, s.cfg.Inputs)
	}
	if p.Slots < 1 || p.Slots > maxSlots {
		return fmt.Errorf("packet %d occupies %d slots of a %d-slot pool", p.ID, p.Slots, maxSlots)
	}
	if p.OutPort < 0 || p.OutPort >= s.cfg.Radix {
		return fmt.Errorf("packet %d routed to output %d of a radix-%d switch", p.ID, p.OutPort, s.cfg.Radix)
	}
	if p.Injected < -1 || p.Bytes < 0 {
		return fmt.Errorf("packet %d has impossible bookkeeping (injected %d, %d bytes)",
			p.ID, p.Injected, p.Bytes)
	}
	if stage >= 0 && p.OutPort != s.top.RouteDigit(p.Dest, stage) {
		return fmt.Errorf("packet %d for destination %d waits for output %d at stage %d, which routes it to output %d",
			p.ID, p.Dest, p.OutPort, stage, s.top.RouteDigit(p.Dest, stage))
	}
	return nil
}

// walkSwitches walks every switch in stage order: its arbiter state, then
// the slot pools behind it.
func (s *Sim) walkSwitches(c *checkpoint.Codec) error {
	for st := range s.stages {
		for si, swc := range s.stages[st] {
			if err := swc.Arbiter().Walk(c); err != nil {
				return ckptErr("stage %d switch %d arbiter: %v", st, si, err)
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
// (multi-slot packets occupy several slots but serialize once), and
// decoding checks each against the stage's routing.
func (s *Sim) walkPools(c *checkpoint.Codec, stage, si int, swc *sw.Switch) error {
	pools, maxSlots := swc.Ports(), s.poolCap()
	if s.cfg.SharedPool {
		pools = 1
	}
	check := func(p *packet.Packet) error { return s.checkPacket(p, maxSlots, stage) }
	for in := 0; in < pools; in++ {
		if err := swc.Buffer(in).Pool().Walk(c, check); err != nil {
			return ckptErr("stage %d switch %d input %d: %v", stage, si, in, err)
		}
		if !c.Decoding() || c.Err() != nil {
			continue
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
				return ckptErr("source %d: %v", i, err)
			}
			if p.Source != i {
				return ckptErr("packet %d queued at source %d claims source %d", p.ID, i, p.Source)
			}
			q.PushBack(p)
		}
	}
	return c.Err()
}

// walkShards walks each shard's traffic pattern (its RNG stream and any
// burst registers), its packet-length and phase streams, its counters,
// its measurement partial, and its per-stage arbitration stamps.
func (s *Sim) walkShards(c *checkpoint.Codec) error {
	n := len(s.shards)
	if c.Int(&n); c.Err() == nil && n != len(s.shards) {
		return ckptErr("%d shard records for a %d-shard topology", n, len(s.shards))
	}
	for _, sh := range s.shards {
		if err := sh.pattern.Walk(c); err != nil {
			return ckptErr("shard %d traffic: %v", sh.id, err)
		}
		if err := sh.lengths.Walk(c); err != nil {
			return ckptErr("shard %d packet lengths: %v", sh.id, err)
		}
		if err := sh.phase.Walk(c); err != nil {
			return ckptErr("shard %d phase stream: %v", sh.id, err)
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
			if n := c.FixedLen(len(stamps)); n != len(stamps) {
				return ckptErr("shard %d stage %d has %d arbitration stamps for %d switches",
					sh.id, st, n, len(stamps))
			}
			for i := range stamps {
				// Checkpoints fall between cycles: no switch can have
				// been arbitrated in the cycle that has not run yet.
				if c.I64(&stamps[i]); c.Decoding() && (stamps[i] < -1 || stamps[i] >= s.cycle) {
					return ckptErr("shard %d stage %d switch %d arbitrated at impossible cycle %d",
						sh.id, st, i, stamps[i])
				}
			}
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
		if err := sum.Walk(c); err != nil {
			return ckptErr("shard %d summary: %v", shardID, err)
		}
	}
	// The format stores width and sum as float64s. Decoding admits only
	// this run's width and a whole-number sum within ±2^62 (NaN fails the
	// range test) before converting them back.
	h := r.LatencyHist
	width, sum := float64(h.Width()), float64(h.Sum())
	buckets, overflow, total := h.Buckets(), h.Overflow(), h.Total()
	c.F64(&width)
	c.I64s(&buckets)
	c.I64(&overflow)
	c.I64(&total)
	c.F64(&sum)
	if !c.Decoding() || c.Err() != nil {
		return c.Err()
	}
	if width != float64(h.Width()) {
		return ckptErr("shard %d latency histogram has bucket width %g, this run uses %d", shardID, width, h.Width())
	}
	if !(math.Abs(sum) <= 1<<62) || sum != math.Trunc(sum) {
		return ckptErr("shard %d latency histogram sum %g is not a sum of clock counts", shardID, sum)
	}
	if err := h.Restore(buckets, overflow, total, int64(sum)); err != nil {
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

// walkObserver walks the attached observer (obs.Observer.Walk), or
// the parked one of a restored Sim no observer has attached to yet, so
// checkpointing such a Sim again carries the parked values through.
// Decoding reads into a fresh observer holding this simulation's
// instrument set — the registration SetObserver makes, so the set is
// written down once — and parks it until SetObserver hands its values
// to the caller's observer.
func (s *Sim) walkObserver(c *checkpoint.Codec) error {
	o := s.pendingObs
	switch {
	case c.Decoding():
		o = obs.NewObserver()
		s.register(o)
		s.pendingObs = o
	case s.metrics != nil:
		o = s.metrics.observer
	}
	if err := o.Walk(c, s.cycle); err != nil {
		return ckptErr("observer: %v", err)
	}
	return c.Err()
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
// route phase reads to skip empty switches, and cross-checks the
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
