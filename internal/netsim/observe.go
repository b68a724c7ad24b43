package netsim

import (
	"fmt"

	"damq/internal/buffer"
	"damq/internal/fault"
	"damq/internal/obs"
	"damq/internal/sw"
)

// Metric names exported by an observed network simulation. They are the
// stable -metrics JSON contract: the golden test pins them and
// ValidateSnapshot checks for them, so renaming one is an API change.
const (
	// Counters. Generated/injected/discard counters share Result's
	// measurement-window semantics; delivered counts every measured
	// delivery, so MetricLatencyInjected's total always equals it.
	// Grant/conflict/blocked/refused counters aggregate over all switches
	// and count from attach (warmup included), since arbitration has no
	// notion of the measurement window.
	MetricGenerated      = "net.packets.generated"
	MetricInjected       = "net.packets.injected"
	MetricDelivered      = "net.packets.delivered"
	MetricDiscardedEntry = "net.packets.discarded_entry"
	MetricDiscardedNet   = "net.packets.discarded_net"
	MetricGrants         = "sw.grants"
	MetricConflicts      = "sw.conflicts"
	MetricBlockedHeads   = "sw.blocked_heads"
	MetricOfferRefused   = "sw.offer_refused"

	// Gauges, sampled at the end of every measured cycle. Per-stage
	// occupancy gauges are named net.stage<N>.occupancy.
	MetricInFlight      = "net.in_flight"
	MetricSourceBacklog = "net.source_backlog"

	// Histograms. Queue depth observes every (input buffer, output queue)
	// pair of every switch once per measured cycle; the latency pair uses
	// ClocksPerCycle-wide buckets like Result.LatencyHist.
	MetricQueueDepth      = "net.queue.depth"
	MetricLatencyBorn     = "net.latency.born_clocks"
	MetricLatencyInjected = "net.latency.injected_clocks"

	// Sharing-policy metrics, registered only when the run exercises a
	// modern admission policy (DT/FB/BSHARE) or a shared pool, so 1988
	// snapshots keep their exact key set. PoolSlotsUsed observes every
	// storage pool's occupied slot count once per measured cycle (one
	// sample per input buffer, or per switch under SharedPool).
	// PolicyRefused counts discards where the pool still had room for
	// the packet — drops the admission rule chose, as opposed to
	// exhaustion; compare it against the discard counters to separate
	// policy pressure from genuine overflow.
	MetricPoolSlotsUsed = "net.pool.slots_used"
	MetricPolicyRefused = "net.policy.refused"
)

// StageOccupancyMetric names the per-stage occupancy gauge for stage st.
func StageOccupancyMetric(st int) string {
	return fmt.Sprintf("net.stage%d.occupancy", st)
}

// netMetrics bundles the instruments an observed Sim updates. All
// instruments are registered once, by register; the shards write only
// their own shardMetrics partials, and the coordinator folds those into
// these registered instruments in the serial epilogue of every Step, so
// the registry is exact at every Step boundary and the observed hot path
// is as allocation-free as the unobserved one.
type netMetrics struct {
	observer *obs.Observer

	generated      *obs.Counter
	injected       *obs.Counter
	delivered      *obs.Counter
	discardedEntry *obs.Counter
	discardedNet   *obs.Counter

	// Switch counters, aggregated over every switch.
	grants       *obs.Counter
	conflicts    *obs.Counter
	blockedHeads *obs.Counter
	offerRefused *obs.Counter

	inFlight *obs.Gauge
	backlog  *obs.Gauge
	stageOcc []*obs.Gauge

	queueDepth  *obs.Histogram
	latBorn     *obs.Histogram
	latInjected *obs.Histogram

	// poolSlots/policyRefused are nil unless the run uses a modern
	// policy or a shared pool (see MetricPoolSlotsUsed).
	poolSlots     *obs.Histogram
	policyRefused *obs.Counter

	// linkDrops/quarantined are the fault.* counters, nil unless faults
	// are armed.
	linkDrops   *obs.Counter
	quarantined *obs.Counter
}

// shardMetrics is one shard's partial of the observer's instruments:
// everything the shard observes between two Step boundaries, written
// only by its owner and folded into the registry (then cleared) by the
// coordinator. Observed runs therefore step on the worker gang like
// unobserved ones, and fold in fixed shard order at any worker count.
type shardMetrics struct {
	n shardCounts
	// sw is attached to every switch the shard owns; its counters point
	// at the shard-owned cells below.
	sw                                  sw.Metrics
	grants, conflicts, blocked, refused obs.Counter

	// Measured-cycle tallies from the inject-phase sweep: depth[v] counts
	// the shard's queues holding v packets, slots[v] its storage pools
	// holding v slots (nil unless the pool histogram is registered), and
	// stageOcc[st] the packets buffered in its stage-st switches. row is
	// the sweep's QueueLens scratch.
	depth, slots []int64
	stageOcc     []int64
	row          []int

	// latInj/latBorn log this cycle's measured delivery latencies in
	// clocks; the coordinator replays them into the two 4096-bucket
	// histograms, which therefore exist once, not once per shard.
	latInj, latBorn []int64
}

// shardCounts are a shard's packet and fault counts since the last fold.
type shardCounts struct {
	generated, injected, delivered int64
	discardedEntry, discardedNet   int64
	policyRefused, linkDrops       int64
}

// SetObserver attaches o's instrument registry to the simulation and to
// every switch (nil detaches everything). Cold path: call it before
// Run/Step. Each shard gets its own partial instruments and its switches
// count into them, so an observed Sim keeps stepping on its worker gang;
// the coordinator folds the partials into o's registry in shard order at
// the end of every Step. The probes consume no randomness, so an
// observed run produces bit-identical Results to an unobserved one with
// the same config, and identical snapshots at every worker count.
func (s *Sim) SetObserver(o *obs.Observer) {
	if o == nil {
		s.metrics = nil
		for _, sh := range s.shards {
			sh.m = nil
		}
		for st := range s.stages {
			for _, swc := range s.stages[st] {
				swc.SetMetrics(nil)
			}
		}
		return
	}
	m := s.register(o)
	poolCap := s.poolCap()
	for _, sh := range s.shards {
		sm := &shardMetrics{
			depth:    make([]int64, poolCap+1),
			stageOcc: make([]int64, len(s.stages)),
			row:      make([]int, s.cfg.Radix),
			// At most one delivery per last-stage output per cycle, so
			// the logs never grow past this.
			latInj:  make([]int64, 0, (sh.hi-sh.lo)*s.cfg.Radix),
			latBorn: make([]int64, 0, (sh.hi-sh.lo)*s.cfg.Radix),
		}
		if m.poolSlots != nil {
			sm.slots = make([]int64, poolCap+1)
		}
		sm.sw = sw.Metrics{Grants: &sm.grants, Conflicts: &sm.conflicts,
			BlockedHeads: &sm.blocked, OfferRefused: &sm.refused}
		for st := range s.stages {
			for _, swc := range s.stages[st][sh.lo:sh.hi] {
				swc.SetMetrics(&sm.sw)
			}
		}
		sh.m = sm
	}
	s.metrics = m
	// A restored Sim carries the checkpointed observer until the first
	// observer attaches; adopting its values makes the resumed run's
	// final snapshot byte-identical to the uninterrupted run's.
	if s.pendingObs != nil {
		o.Adopt(s.pendingObs)
		s.pendingObs = nil
	}
}

// register registers this simulation's instrument set in o's registry
// and returns the handles: the packet, switch and level instruments, the
// sharing-policy pair when a modern policy or a shared pool is in use,
// and the fault counters when faults are armed (a fault-free snapshot
// must not grow fault.* keys). SetObserver attaches what it returns;
// restore validates a checkpoint's observer section against a scratch
// registration, so the instrument set is written down here alone.
func (s *Sim) register(o *obs.Observer) *netMetrics {
	r := o.Registry()
	m := &netMetrics{
		observer:       o,
		generated:      r.Counter(MetricGenerated),
		injected:       r.Counter(MetricInjected),
		delivered:      r.Counter(MetricDelivered),
		discardedEntry: r.Counter(MetricDiscardedEntry),
		discardedNet:   r.Counter(MetricDiscardedNet),
		grants:         r.Counter(MetricGrants),
		conflicts:      r.Counter(MetricConflicts),
		blockedHeads:   r.Counter(MetricBlockedHeads),
		offerRefused:   r.Counter(MetricOfferRefused),
		inFlight:       r.Gauge(MetricInFlight),
		backlog:        r.Gauge(MetricSourceBacklog),
		stageOcc:       make([]*obs.Gauge, len(s.stages)),
		queueDepth:     r.Histogram(MetricQueueDepth, s.cfg.Capacity+1, 1),
		latBorn:        r.Histogram(MetricLatencyBorn, 4096, ClocksPerCycle),
		latInjected:    r.Histogram(MetricLatencyInjected, 4096, ClocksPerCycle),
	}
	for st := range s.stages {
		m.stageOcc[st] = r.Gauge(StageOccupancyMetric(st))
	}
	if buffer.KindModern(s.cfg.BufferKind) || s.cfg.SharedPool {
		m.poolSlots = r.Histogram(MetricPoolSlotsUsed, s.poolCap()+1, 1)
		m.policyRefused = r.Counter(MetricPolicyRefused)
	}
	if s.flt != nil {
		m.registerFaults()
	}
	return m
}

// registerFaults registers the fault.* counters.
func (m *netMetrics) registerFaults() {
	r := m.observer.Registry()
	m.linkDrops = r.Counter(fault.MetricLinkDrops)
	m.quarantined = r.Counter(fault.MetricSlotsQuarantined)
}

// unregisterFaults drops the fault.* counters when faults are disarmed,
// so the registry, and any checkpoint of it, lists only what a
// fault-free Sim registers.
func (m *netMetrics) unregisterFaults() {
	r := m.observer.Registry()
	r.RemoveCounter(fault.MetricLinkDrops)
	r.RemoveCounter(fault.MetricSlotsQuarantined)
	m.linkDrops, m.quarantined = nil, nil
}

// poolCap is the slot count of one storage pool: one buffer's, or the
// whole switch's under SharedPool. No queue holds more packets.
func (s *Sim) poolCap() int {
	if s.cfg.SharedPool {
		return s.cfg.Capacity * s.cfg.Radix
	}
	return s.cfg.Capacity
}

// sampleMetrics is the shard's measured-cycle instrument sweep, run in
// the inject phase over the switches it owns: queue-depth and pool-slot
// tallies and per-stage occupancy. Occupied means holding packets —
// quarantined slots are neither free nor used, so the pool tally
// isolates what the admission policy let in; under SharedPool one pool
// spans the switch, so it is tallied once per switch, not per view.
// damqvet:hotpath
func (sh *shard) sampleMetrics() {
	sm := sh.m
	shared := sh.sim.cfg.SharedPool
	for st, row := range sh.sim.stages {
		occ := int64(0)
		for _, swc := range row[sh.lo:sh.hi] {
			occ += int64(swc.Len())
			used := 0
			for in := 0; in < swc.Ports(); in++ {
				b := swc.Buffer(in)
				b.QueueLens(sm.row)
				for _, n := range sm.row {
					sm.depth[n]++
				}
				if sm.slots != nil {
					for out := range sm.row {
						used += b.QueueSlots(out)
					}
					if !shared {
						sm.slots[used]++
						used = 0
					}
				}
			}
			if shared && sm.slots != nil {
				sm.slots[used]++
			}
		}
		sm.stageOcc[st] += occ
	}
}

// foldMetrics runs in the serial epilogue of every Step with an observer
// attached: it folds each shard's partials into the registry in shard
// order and clears them. On a measured cycle it also sets the level
// gauges and — when the observer's interval is enabled — appends the
// cumulative time-series record. It allocates only when the time series
// grows (amortized append, off by default).
func (s *Sim) foldMetrics(measuring bool, backlog int64) {
	m := s.metrics
	var linkDrops int64
	for _, sh := range s.shards {
		sm := sh.m
		n := sm.n
		sm.n = shardCounts{}
		m.generated.Add(n.generated)
		m.injected.Add(n.injected)
		m.delivered.Add(n.delivered)
		m.discardedEntry.Add(n.discardedEntry)
		m.discardedNet.Add(n.discardedNet)
		if m.policyRefused != nil {
			m.policyRefused.Add(n.policyRefused)
		}
		linkDrops += n.linkDrops
		drain(m.grants, &sm.grants)
		drain(m.conflicts, &sm.conflicts)
		drain(m.blockedHeads, &sm.blocked)
		drain(m.offerRefused, &sm.refused)
		for _, v := range sm.latInj {
			m.latInjected.Observe(v)
		}
		for _, v := range sm.latBorn {
			m.latBorn.Observe(v)
		}
		sm.latInj, sm.latBorn = sm.latInj[:0], sm.latBorn[:0]
		foldTally(m.queueDepth, sm.depth)
		if sm.slots != nil {
			foldTally(m.poolSlots, sm.slots)
		}
	}
	if m.linkDrops != nil {
		m.linkDrops.Add(linkDrops)
	}
	if !measuring {
		return
	}
	for st, g := range m.stageOcc {
		total := int64(0)
		for _, sh := range s.shards {
			total += sh.m.stageOcc[st]
			sh.m.stageOcc[st] = 0
		}
		g.Set(total)
	}
	inFlight := s.InFlight()
	m.inFlight.Set(inFlight)
	m.backlog.Set(backlog)

	if !m.observer.Due(s.cycle) {
		return
	}
	m.observer.RecordInterval(obs.IntervalRecord{
		Cycle:        s.cycle,
		Generated:    m.generated.Value(),
		Injected:     m.injected.Value(),
		Delivered:    m.delivered.Value(),
		Discarded:    m.discardedEntry.Value() + m.discardedNet.Value(),
		InFlight:     inFlight,
		Backlog:      backlog,
		LatencySum:   m.latInjected.Sum(),
		LatencyCount: m.latInjected.Total(),
	})
}

// drain adds a shard-owned counter into its registered twin and clears it.
func drain(to, from *obs.Counter) {
	to.Add(from.Value())
	from.Set(0)
}

// foldTally observes tally[v] samples of every value v into h and clears
// the tally.
func foldTally(h *obs.Histogram, tally []int64) {
	for v, n := range tally {
		if n != 0 {
			h.ObserveN(int64(v), n)
			tally[v] = 0
		}
	}
}

// ValidateSnapshot checks that a snapshot has the shape an observed
// network simulation exports: all packet/arbitration counters, the level
// gauges plus at least stage 0's occupancy gauge (and contiguous stage
// numbering), the depth/latency histograms, and the structural invariant
// that the injection-latency histogram's total equals the delivered
// counter.
func ValidateSnapshot(s *obs.Snapshot) error {
	for _, name := range []string{
		MetricGenerated, MetricInjected, MetricDelivered,
		MetricDiscardedEntry, MetricDiscardedNet,
		MetricGrants, MetricConflicts, MetricBlockedHeads, MetricOfferRefused,
	} {
		if _, ok := s.Counter(name); !ok {
			return fmt.Errorf("netsim: snapshot missing counter %q", name)
		}
	}
	for _, name := range []string{MetricInFlight, MetricSourceBacklog} {
		if _, ok := s.Gauge(name); !ok {
			return fmt.Errorf("netsim: snapshot missing gauge %q", name)
		}
	}
	if _, ok := s.Gauge(StageOccupancyMetric(0)); !ok {
		return fmt.Errorf("netsim: snapshot missing gauge %q", StageOccupancyMetric(0))
	}
	for _, name := range []string{MetricQueueDepth, MetricLatencyBorn, MetricLatencyInjected} {
		if _, ok := s.Histogram(name); !ok {
			return fmt.Errorf("netsim: snapshot missing histogram %q", name)
		}
	}
	delivered, _ := s.Counter(MetricDelivered)
	latInj, _ := s.Histogram(MetricLatencyInjected)
	if latInj.Total != delivered {
		return fmt.Errorf("netsim: latency histogram total %d != delivered %d", latInj.Total, delivered)
	}
	latBorn, _ := s.Histogram(MetricLatencyBorn)
	if latBorn.Total > delivered {
		return fmt.Errorf("netsim: born-latency samples %d exceed delivered %d", latBorn.Total, delivered)
	}
	return nil
}

// ValidateSnapshotJSON decodes raw (a -metrics file) and runs
// ValidateSnapshot — the check CI applies to the omegasim smoke run.
func ValidateSnapshotJSON(raw []byte) error {
	s, err := obs.DecodeSnapshot(raw)
	if err != nil {
		return err
	}
	return ValidateSnapshot(s)
}
