package netsim

import (
	"fmt"
	"sort"

	"damq/internal/buffer"
	"damq/internal/fault"
)

// slotEvent is one precomputed slot failure: at cycle, slot slot of the
// buffer at (stage st, switch si, input in) goes out of service.
type slotEvent struct {
	cycle          int64
	st, si, in, sl int32
}

// netFaults is the simulation's fault state: the injector for per-cycle
// link decisions, the precomputed slot-failure schedule, and the running
// totals. Sim holds nil when faults are off, so the fault-free cycle
// path pays one pointer test.
type netFaults struct {
	cfg       fault.Config
	inj       *fault.Injector
	linkDown  bool // any link fault rate non-zero
	events    []slotEvent
	next      int
	quarSlots int64 // slots scheduled out of service
}

// SetFaults arms deterministic fault injection: transiently or
// permanently dead inter-stage links (traffic on them is counted as
// faulted-discard, never silently lost) and stuck buffer slots
// (quarantined out of the DAMQ/DAFC free lists, shrinking capacity). A
// config with Seed 0 derives the fault seed from the simulation seed, so
// distinct runs see distinct schedules by default while an explicit seed
// replays exactly. Fault decisions are pure functions of (seed, site,
// cycle): the schedule is byte-for-byte replayable at any worker count.
//
// Cold path: call before the first Step. A disabled config detaches.
func (s *Sim) SetFaults(fc fault.Config) error {
	if s.cycle != 0 {
		return fmt.Errorf("netsim: SetFaults after cycle %d; faults must be armed before stepping", s.cycle)
	}
	return s.armFaults(fc)
}

// armFaults is SetFaults without the cycle check, for restore: the
// checkpoint's clock section has already moved the cycle when its fault
// section re-arms injection.
func (s *Sim) armFaults(fc fault.Config) error {
	if err := fc.Validate(); err != nil {
		return err
	}
	if !fc.Enabled() {
		if s.flt != nil && s.metrics != nil {
			s.metrics.unregisterFaults()
		}
		s.flt = nil
		return nil
	}
	if fc.Seed == 0 {
		fc.Seed = s.cfg.Seed + 0x9e3779b97f4a7c15
	}
	inj, err := fault.NewInjector(fc)
	if err != nil {
		return err
	}
	f := &netFaults{
		cfg:      fc,
		inj:      inj,
		linkDown: fc.LinkTransientRate > 0 || fc.LinkDeadRate > 0,
	}
	if fc.SlotStuckRate > 0 {
		f.events = s.buildSlotSchedule(inj)
	}
	s.flt = f
	if s.metrics != nil {
		s.metrics.registerFaults()
	}
	return nil
}

// buildSlotSchedule draws every slot's failure cycle up front and sorts
// the finite ones into one chronological event list. Slot faults apply
// to the pooled kinds only (buffer.KindSharesPool), so FIFO, SAMQ and
// SAFC runs get an empty schedule. The site/slot numbering is
// positional, so the schedule is independent of evaluation order.
func (s *Sim) buildSlotSchedule(inj *fault.Injector) []slotEvent {
	if !buffer.KindSharesPool(s.cfg.BufferKind) {
		return nil
	}
	var events []slotEvent
	for st := range s.stages {
		for si, swc := range s.stages[st] {
			for in := 0; in < swc.Ports(); in++ {
				site := fault.BufferSite(st, si, in)
				for sl := 0; sl < swc.Buffer(in).Capacity(); sl++ {
					c := inj.SlotFailCycle(site, sl)
					if c < 0 {
						continue
					}
					events = append(events, slotEvent{
						cycle: c, st: int32(st), si: int32(si), in: int32(in), sl: int32(sl),
					})
				}
			}
		}
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.cycle != b.cycle {
			return a.cycle < b.cycle
		}
		if a.st != b.st {
			return a.st < b.st
		}
		if a.si != b.si {
			return a.si < b.si
		}
		if a.in != b.in {
			return a.in < b.in
		}
		return a.sl < b.sl
	})
	return events
}

// applyDueSlotFaults quarantines every slot whose failure cycle has
// arrived. Runs at the top of Step; the common case (no event due) is
// one comparison.
func (s *Sim) applyDueSlotFaults() {
	f := s.flt
	for f.next < len(f.events) && f.events[f.next].cycle <= s.cycle {
		ev := f.events[f.next]
		f.next++
		if s.stages[ev.st][ev.si].Buffer(int(ev.in)).QuarantineSlot(int(ev.sl)) {
			f.quarSlots++
			if m := s.metrics; m != nil {
				m.quarantined.Inc()
			}
		}
	}
}

// dropOnFaultedLink reports whether the link leaving (stage, switch, out)
// is down this cycle, counting the drop if so. The link decision is a
// pure function of (seed, site, cycle) — fault.Injector holds no mutable
// state — so concurrent shards may query it; the drop counters, the
// observer's partial included, are shard-local.
// damqvet:hotpath
func (sh *shard) dropOnFaultedLink(st, si, out int, measuring bool) bool {
	s := sh.sim
	f := s.flt
	if !f.linkDown || !f.inj.LinkDown(fault.NetLinkSite(st, si, out), s.cycle) {
		return false
	}
	sh.faulted++
	if sh.m != nil {
		sh.m.n.linkDrops++
	}
	if measuring {
		sh.partial.FaultedInNet++
	}
	return true
}

// Faulted reports the total packets dropped on faulted links since the
// simulation started (warmup included) — the all-time counterpart of
// Result.FaultedInNet.
func (s *Sim) Faulted() int64 {
	if s.flt == nil {
		return 0
	}
	var n int64
	for _, sh := range s.shards {
		n += sh.faulted
	}
	return n
}

// QuarantinedSlots reports how many buffer slots the fault schedule has
// taken out of service so far.
func (s *Sim) QuarantinedSlots() int64 {
	if s.flt == nil {
		return 0
	}
	return s.flt.quarSlots
}

// CheckBuffers runs every switch buffer's structural self-check — the
// linked-list audit of its slot pool, for every kind — and returns the
// first inconsistency. The chaos-soak test calls it periodically: under
// fault injection the linked lists must shrink gracefully, never corrupt.
func (s *Sim) CheckBuffers() error {
	for st := range s.stages {
		for si, swc := range s.stages[st] {
			for in := 0; in < swc.Ports(); in++ {
				if err := swc.Buffer(in).CheckInvariants(); err != nil {
					return fmt.Errorf("netsim: stage %d switch %d input %d: %w", st, si, in, err)
				}
			}
		}
	}
	return nil
}
