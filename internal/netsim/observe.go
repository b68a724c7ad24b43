package netsim

import (
	"fmt"

	"damq/internal/buffer"
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
// instruments are registered once in SetObserver; per-cycle probe code
// only dereferences these pointers, so the observed hot path is as
// allocation-free as the unobserved one.
type netMetrics struct {
	observer *obs.Observer

	generated      *obs.Counter
	injected       *obs.Counter
	delivered      *obs.Counter
	discardedEntry *obs.Counter
	discardedNet   *obs.Counter

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

	// lastSample is the cycle of the last time-series record (-1 = none
	// yet); used only when the observer's interval is enabled.
	lastSample int64
}

// SetObserver attaches o's instrument registry to the simulation and to
// every switch (nil detaches everything). Cold path: call it before
// Run/Step. The probes consume no randomness, so an observed run
// produces bit-identical Results to an unobserved one with the same
// config. An observed Sim steps its shards serially even when Workers > 1
// (the instruments are shared across shards); by the sharded-determinism
// contract that changes no result.
func (s *Sim) SetObserver(o *obs.Observer) {
	if o == nil {
		s.metrics = nil
		if s.flt != nil {
			s.flt.m = nil
		}
		for st := range s.stages {
			for _, swc := range s.stages[st] {
				swc.SetMetrics(nil)
			}
		}
		return
	}
	r := o.Registry()
	m := &netMetrics{
		observer:       o,
		generated:      r.Counter(MetricGenerated),
		injected:       r.Counter(MetricInjected),
		delivered:      r.Counter(MetricDelivered),
		discardedEntry: r.Counter(MetricDiscardedEntry),
		discardedNet:   r.Counter(MetricDiscardedNet),
		inFlight:       r.Gauge(MetricInFlight),
		backlog:        r.Gauge(MetricSourceBacklog),
		lastSample:     -1,
	}
	m.stageOcc = make([]*obs.Gauge, len(s.stages))
	for st := range s.stages {
		m.stageOcc[st] = r.Gauge(StageOccupancyMetric(st))
	}
	c := int64(s.cfg.ClocksPerCycle)
	m.queueDepth = r.Histogram(MetricQueueDepth, s.cfg.Capacity+1, 1)
	m.latBorn = r.Histogram(MetricLatencyBorn, 4096, c)
	m.latInjected = r.Histogram(MetricLatencyInjected, 4096, c)
	if buffer.KindModern(s.cfg.BufferKind) || s.cfg.SharedPool {
		poolCap := s.cfg.Capacity
		if s.cfg.SharedPool {
			poolCap *= s.cfg.Radix
		}
		m.poolSlots = r.Histogram(MetricPoolSlotsUsed, poolCap+1, 1)
		m.policyRefused = r.Counter(MetricPolicyRefused)
	}

	// Grant/conflict/blocked/refused counts aggregate across all
	// switches: one shared counter set, fanned out to every stage.
	swm := &sw.Metrics{
		Grants:       r.Counter(MetricGrants),
		Conflicts:    r.Counter(MetricConflicts),
		BlockedHeads: r.Counter(MetricBlockedHeads),
		OfferRefused: r.Counter(MetricOfferRefused),
	}
	for st := range s.stages {
		for _, swc := range s.stages[st] {
			swc.SetMetrics(swm)
		}
	}
	s.metrics = m
	// Fault instruments ride on the same observer, but only when faults
	// are armed: a fault-free snapshot must not grow fault.* keys.
	if s.flt != nil {
		s.flt.register(o)
	}
	// A restored Sim carries the checkpointed instrument values until the
	// first observer attaches; applying them after registration makes the
	// resumed run's final snapshot byte-identical to the uninterrupted
	// run's. The values were validated against this config's instrument
	// set at restore time, so application cannot fail.
	if s.pendingObs != nil {
		s.pendingObs.apply(s)
		s.pendingObs = nil
	}
}

// sampleMetrics runs at the end of every measured cycle with an observer
// attached: per-stage occupancy gauges, the per-queue depth histogram,
// level gauges, and — when the observer's interval is enabled — the
// cumulative time-series record. It allocates only when the time series
// grows (amortized append, off by default).
func (s *Sim) sampleMetrics(backlog int64) {
	m := s.metrics
	inFlight := s.InFlight()
	for st := range s.stages {
		total := int64(0)
		for _, swc := range s.stages[st] {
			total += int64(swc.Len())
			ports := swc.Ports()
			for in := 0; in < ports; in++ {
				b := swc.Buffer(in)
				for out := 0; out < ports; out++ {
					m.queueDepth.Observe(int64(b.QueueLen(out)))
				}
			}
		}
		m.stageOcc[st].Set(total)
	}
	m.inFlight.Set(inFlight)
	m.backlog.Set(backlog)
	if m.poolSlots != nil {
		s.samplePoolSlots()
	}

	iv := m.observer.Interval()
	if iv <= 0 {
		return
	}
	if m.lastSample >= 0 && s.cycle-m.lastSample < iv {
		return
	}
	m.lastSample = s.cycle
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

// samplePoolSlots observes each storage pool's occupied slot count:
// one sample per input buffer normally, one per switch when all its
// inputs share a pool (summing per-view counts walks the whole group).
// Occupied means holding packets — quarantined slots are neither free
// nor used, so the histogram isolates what the admission policy let in.
// The histogram exists only for modern or shared-pool runs, so every
// sampled kind is a pooled one.
func (s *Sim) samplePoolSlots() {
	m := s.metrics
	shared := s.cfg.SharedPool
	for st := range s.stages {
		for _, swc := range s.stages[st] {
			ports := swc.Ports()
			used := 0
			for in := 0; in < ports; in++ {
				b := swc.Buffer(in)
				for out := 0; out < ports; out++ {
					used += b.QueueSlots(out)
				}
				if !shared {
					m.poolSlots.Observe(int64(used))
					used = 0
				}
			}
			if shared {
				m.poolSlots.Observe(int64(used))
			}
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
