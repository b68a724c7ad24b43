package comcobb

import (
	"damq/internal/fault"
	"damq/internal/obs"
)

// FaultStats are a fault-checking chip's plain counters, readable without
// an observer. All are zero on a fault-free chip.
type FaultStats struct {
	// Corrupted counts wire bytes the injector flipped on this chip's
	// input links.
	Corrupted int64
	// Nacks counts parity failures NACKed back upstream (one per dropped
	// packet).
	Nacks int64
	// Dropped counts packets a receiver discarded on a parity error
	// before or during buffering (never silently: each is NACKed).
	Dropped int64
	// Poisoned counts packets that were already granted and cutting
	// through the crossbar when corruption arrived: the damaged byte
	// propagates downstream with regenerated parity, so only an
	// end-to-end check can catch it. The receiver does not NACK these —
	// the packet was delivered (corrupted), and a retransmission would
	// duplicate it.
	Poisoned int64
}

// chipFaults is the per-chip fault-injection state: the injector that
// decides corruption, the plain counters, and the optional observer
// instruments. The Chip holds a nil *chipFaults when faults are off, so
// the entire machinery sits behind one pointer check on the cycle path.
type chipFaults struct {
	inj   *fault.Injector
	stats FaultStats
	m     *chipFaultMetrics // nil without an observer
}

// chipFaultMetrics mirrors FaultStats into an observer's registry using
// the shared fault.* names. Registered only when faults are enabled, so a
// faults-off snapshot is byte-identical to pre-fault builds.
type chipFaultMetrics struct {
	corrupted *obs.Counter
	nacks     *obs.Counter
	dropped   *obs.Counter
	poisoned  *obs.Counter
}

func newChipFaults(inj *fault.Injector, o *obs.Observer) *chipFaults {
	f := &chipFaults{inj: inj}
	if o != nil {
		r := o.Registry()
		f.m = &chipFaultMetrics{
			corrupted: r.Counter(fault.MetricWireCorrupted),
			nacks:     r.Counter(fault.MetricNACKs),
			dropped:   r.Counter(fault.MetricRxDropped),
			poisoned:  r.Counter(fault.MetricRxPoisoned),
		}
	}
	return f
}

// corrupt applies this cycle's wire corruption to the chip's input links,
// after every producer has driven and before any consumer samples. Only
// valid data symbols are touched; the parity wire is left stale, which is
// what makes the corruption detectable.
// damqvet:hotpath
func (f *chipFaults) corrupt(c *Chip) {
	for i, l := range c.inLinks {
		if !l.cur.valid || l.cur.start {
			continue
		}
		mask, ok := f.inj.CorruptWire(fault.ChipLinkSite(i), c.cycle)
		if !ok {
			continue
		}
		l.cur.b ^= mask
		f.stats.Corrupted++
		if f.m != nil {
			f.m.corrupted.Inc()
		}
	}
}

// countNACK records one receiver drop + NACK pair.
func (f *chipFaults) countNACK() {
	f.stats.Nacks++
	f.stats.Dropped++
	if f.m != nil {
		f.m.nacks.Inc()
		f.m.dropped.Inc()
	}
}

// countPoisoned records one packet poisoned mid-cut-through.
func (f *chipFaults) countPoisoned() {
	f.stats.Poisoned++
	if f.m != nil {
		f.m.poisoned.Inc()
	}
}
