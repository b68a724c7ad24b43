// Package netsim simulates a multistage Omega network of n×n switches
// under the paper's Section 4.2 assumptions (following Pfister & Norton):
// transmissions are synchronized, so a packet fully moves from one stage
// to the next once per "network cycle" of ClocksPerCycle clock cycles
// (12 in the paper: 8 to transmit + 4 to route); processors are message
// generators, memories are message receivers.
//
// One network cycle (three barrier-separated phases; DESIGN.md §11):
//
//  1. Arbitrate: every switch arbitrates its crossbar against the
//     pre-movement state (an empty switch is skipped on its occupancy
//     counter, and its arbiter replays the skipped rounds when a packet
//     next arrives; DESIGN.md §8). Under the blocking protocol a queue
//     whose head needs more slots than the room its downstream buffer
//     publishes is masked from arbitration (the paper's "longest queue
//     ... which was not blocked"). Grants are recorded but nothing is
//     popped, so every arbitration decision — including the reads of the
//     published room — sees one consistent snapshot.
//  2. Move: all granted packets are popped, then delivered: last-stage
//     packets exit to their memory module; others are routed toward the
//     next stage's input buffer. Pops happen before accepts, so a slot
//     freed this cycle can hold a packet arriving this cycle.
//  3. Inject: routed packets enter next-stage buffers (under the
//     discarding protocol a packet that finds its buffer full is
//     dropped), then sources inject: newly generated packets (plus,
//     under blocking, the backlog waiting in unbounded source queues)
//     enter first-stage buffers; under discarding a generated packet
//     that does not fit is dropped at entry.
//
// The network is partitioned into shards — contiguous switch ranges
// applied to every stage, plus the sources and deliveries wired to them.
// Each shard owns its switches' buffers, arbiters, arbitration stamps,
// RNG streams, and measurement partials; cross-shard traffic moves
// through per-(writer, reader) outboxes handed over at the phase
// barriers. The shard count is a pure function of the topology, so
// results are byte-identical at any worker count (Config.Workers),
// including 1.
//
// Latency accounting (DESIGN.md §4): a packet is born at clock
// cycle*C + u with u uniform in [0, C); it is delivered at the end of the
// cycle that pops it from the last stage, clock (cycle+1)*C. End-to-end
// latency (LatencyFromBorn) includes source queueing; network latency
// (LatencyFromInjection) counts from the end of the injection cycle and is
// the right metric in saturated regimes where source queues grow without
// bound.
package netsim

import (
	"context"
	"fmt"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/omega"
	"damq/internal/packet"
	"damq/internal/parallel"
	"damq/internal/pktq"
	"damq/internal/rng"
	"damq/internal/stats"
	"damq/internal/sw"
	"damq/internal/traffic"
)

// TrafficKind selects the workload.
type TrafficKind int

const (
	// Uniform random destinations (paper Tables 3-5, Figure 3).
	Uniform TrafficKind = iota
	// HotSpot re-addresses a fraction of packets to one module (Table 6).
	HotSpot
	// Permutation uses one fixed destination per source.
	Permutation
	// Bursty generates multi-packet messages: geometric-length bursts of
	// packets to one destination, back to back (the message extension).
	Bursty
)

// TrafficSpec describes the workload.
type TrafficSpec struct {
	Kind TrafficKind
	// Load is offered packets per source per network cycle.
	Load float64
	// HotFraction and HotDest configure HotSpot (e.g. 0.05 and 0).
	HotFraction float64
	HotDest     int
	// Perm configures Permutation.
	Perm []int
	// MeanBurst configures Bursty: mean message length in packets (>= 1).
	MeanBurst float64
	// MinSlots/MaxSlots give packet sizes; 0,0 means fixed single-slot
	// packets. MaxSlots > MinSlots enables the variable-length extension.
	MinSlots, MaxSlots int
}

// Config describes one simulation run.
type Config struct {
	Radix          int // switch size n (4 in the paper)
	Inputs         int // network width N (64 in the paper)
	BufferKind     buffer.Kind
	Capacity       int // slots per input buffer (4 in most tables)
	Policy         arbiter.Policy
	Protocol       sw.Protocol
	ClocksPerCycle int // 12 in the paper
	Traffic        TrafficSpec
	WarmupCycles   int64
	MeasureCycles  int64
	Seed           uint64
	// Workers shards this one run's per-cycle work across goroutines:
	// 0 or 1 means serial, n > 1 uses up to n workers (silently clamped
	// to the shard count), and a negative value means GOMAXPROCS. The
	// shard partition is a pure function of the topology, so results are
	// byte-identical at every worker count; Validate rejects counts above
	// SwitchesPerStage (cfgerr.ErrBadWorkers). Collected Results report
	// this field as 0 — it is an execution knob, not a model parameter.
	Workers int
	// SharedPool makes every switch pool its input buffers into one
	// Radix*Capacity-slot storage group (the "2026" sharing geometry).
	// Requires a pooled kind (buffer.KindSharesPool).
	SharedPool bool
	// Sharing tunes the modern admission policies (DT/FB/BSHARE); the
	// zero value means paper-reasonable defaults. Ignored by the four
	// 1988 kinds and DAFC, and Validate rejects knobs set on a kind
	// that does not read them.
	Sharing buffer.Sharing
}

// Validate checks the config (after default-filling, so a zero Config is
// valid) under the repo-wide sentinel-error convention: every failure
// wraps one of the internal/cfgerr sentinels (ErrBadRadix, ErrBadKind,
// ErrBadCapacity, ErrBadPolicy, ErrBadProtocol, ErrBadLoad,
// ErrBadTraffic, ErrBadWorkers) so callers classify with errors.Is. New
// calls it first; CLIs may call it directly for early flag feedback.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Radix > arbiter.MaxOutputs {
		return fmt.Errorf("netsim: radix %d exceeds the arbiter's %d outputs: %w",
			c.Radix, arbiter.MaxOutputs, cfgerr.ErrBadRadix)
	}
	if _, err := omega.New(c.Radix, c.Inputs); err != nil {
		return fmt.Errorf("netsim: %v: %w", err, cfgerr.ErrBadRadix)
	}
	bufCfg := buffer.Config{Kind: c.BufferKind, NumOutputs: c.Radix, Capacity: c.Capacity, Sharing: c.Sharing}
	if err := bufCfg.Validate(); err != nil {
		return fmt.Errorf("netsim: %w", err)
	}
	if c.SharedPool && !buffer.KindSharesPool(c.BufferKind) {
		return fmt.Errorf("netsim: %v (policy %s) cannot span input ports as a shared pool: %w",
			c.BufferKind, c.BufferKind.PolicyName(), cfgerr.ErrBadSharing)
	}
	if c.SharedPool && c.Protocol == sw.Blocking {
		// Blocking relies on the room a buffer publishes before the
		// arbitrate phase guaranteeing the inject-phase Offer. A per-port
		// buffer takes at most one packet per cycle, and pops only widen
		// every policy's room, so the guarantee holds; one pool spanning
		// ports can show room to n upstream links at once and overflow
		// on their sum, so it does not survive pooling.
		return fmt.Errorf("netsim: shared pool admission is not port-independent, which the blocking protocol's room contract requires: %w",
			cfgerr.ErrBadSharing)
	}
	if c.Policy != arbiter.Dumb && c.Policy != arbiter.Smart {
		return fmt.Errorf("netsim: unknown policy %v: %w", c.Policy, cfgerr.ErrBadPolicy)
	}
	if c.Protocol != sw.Discarding && c.Protocol != sw.Blocking {
		return fmt.Errorf("netsim: unknown protocol %v: %w", c.Protocol, cfgerr.ErrBadProtocol)
	}
	if c.Traffic.Load < 0 || c.Traffic.Load > 1 {
		return fmt.Errorf("netsim: load %v out of [0,1]: %w", c.Traffic.Load, cfgerr.ErrBadLoad)
	}
	if spp := c.Inputs / c.Radix; c.Workers > spp {
		return fmt.Errorf("netsim: %d workers exceed the %d switches per stage a %d-input radix-%d run can shard to: %w",
			c.Workers, spp, c.Inputs, c.Radix, cfgerr.ErrBadWorkers)
	}
	// Exercise the real traffic constructor so pattern-specific rules
	// (hot fraction range, permutation shape, burst length) cannot drift
	// from what New accepts. The throwaway source is seeded from the
	// caller's own seed and discarded.
	if _, err := c.buildPattern(rng.New(c.Seed)); err != nil {
		return fmt.Errorf("%v: %w", err, cfgerr.ErrBadTraffic)
	}
	return nil
}

// buildPattern constructs the workload's traffic pattern; both Validate
// and New route through it so they cannot disagree.
func (c Config) buildPattern(src *rng.Source) (traffic.Pattern, error) {
	switch c.Traffic.Kind {
	case Uniform:
		return traffic.NewUniform(c.Inputs, c.Traffic.Load, src)
	case HotSpot:
		return traffic.NewHotSpot(c.Inputs, c.Traffic.Load,
			c.Traffic.HotFraction, c.Traffic.HotDest, src)
	case Permutation:
		return traffic.NewPermutation(c.Traffic.Perm, c.Traffic.Load, src)
	case Bursty:
		return traffic.NewBursty(c.Inputs, c.Traffic.Load, c.Traffic.MeanBurst, src)
	}
	return nil, fmt.Errorf("netsim: unknown traffic kind %d", c.Traffic.Kind)
}

// withDefaults fills unset fields with the paper's values.
func (c Config) withDefaults() Config {
	if c.Radix == 0 {
		c.Radix = 4
	}
	if c.Inputs == 0 {
		c.Inputs = 64
	}
	if c.Capacity == 0 {
		c.Capacity = 4
	}
	if c.ClocksPerCycle == 0 {
		c.ClocksPerCycle = 12
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = 1000
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 10000
	}
	return c
}

// Result aggregates a run's measurements.
type Result struct {
	Config Config

	Generated        int64 // packets born in the measurement window
	Injected         int64 // packets entering stage 0 in the window
	Delivered        int64 // packets delivered in the window
	DiscardedAtEntry int64 // discarding protocol: dropped before stage 0
	DiscardedInNet   int64 // discarding protocol: dropped between stages
	// FaultedInNet counts packets dropped on dead or flapping links in
	// the window (SetFaults). Distinct from DiscardedInNet so protocol
	// losses and injected-fault losses never blur; zero (and absent from
	// JSON) on fault-free runs.
	FaultedInNet int64 `json:",omitempty"`

	// LatencyFromBorn includes source-queue wait (clock cycles).
	LatencyFromBorn stats.Summary
	// LatencyFromInjection counts from first-stage entry (clock cycles).
	LatencyFromInjection stats.Summary
	// HotLatency/ColdLatency split LatencyFromBorn by packet class.
	HotLatency  stats.Summary
	ColdLatency stats.Summary
	// Occupancy is the time-average number of buffered packets per switch.
	Occupancy stats.Summary
	// StageOccupancy is the per-stage time-average buffered packets per
	// switch; under hot-spot traffic it shows tree saturation filling the
	// stages closest to the hot module first.
	StageOccupancy []stats.Summary
	// LatencyHist buckets LatencyFromBorn (12-clock buckets, 4096-clock
	// span) for percentile reporting.
	LatencyHist *stats.Histogram
	// SourceBacklog is the time-average total source-queue length
	// (blocking protocol only).
	SourceBacklog stats.Summary
}

// LatencyP returns the q-quantile of LatencyFromBorn (e.g. 0.99).
func (r *Result) LatencyP(q float64) float64 {
	if r.LatencyHist == nil {
		return 0
	}
	return r.LatencyHist.Quantile(q)
}

// Throughput is delivered packets per network input per cycle — the
// x-axis of Figure 3 and the "saturation throughput" metric.
func (r *Result) Throughput() float64 {
	d := float64(r.Config.Inputs) * float64(r.Config.MeasureCycles)
	if d == 0 {
		return 0
	}
	return float64(r.Delivered) / d
}

// OfferedLoad is generated packets per input per cycle.
func (r *Result) OfferedLoad() float64 {
	d := float64(r.Config.Inputs) * float64(r.Config.MeasureCycles)
	if d == 0 {
		return 0
	}
	return float64(r.Generated) / d
}

// DiscardFraction is the fraction of generated packets discarded anywhere
// (Table 3's "percent discarded" divided by 100). Fault drops are not
// protocol discards; see FaultFraction.
func (r *Result) DiscardFraction() float64 {
	if r.Generated == 0 {
		return 0
	}
	return float64(r.DiscardedAtEntry+r.DiscardedInNet) / float64(r.Generated)
}

// FaultFraction is the fraction of generated packets lost to injected
// link faults.
func (r *Result) FaultFraction() float64 {
	if r.Generated == 0 {
		return 0
	}
	return float64(r.FaultedInNet) / float64(r.Generated)
}

// maxShards caps the shard count: shards are the unit of both parallelism
// and RNG-stream partitioning, so the count must stay a pure function of
// the topology (never of the machine) for results to be byte-identical
// everywhere. 16 covers every worker count Validate can accept on the
// paper-sized networks and keeps per-shard bookkeeping negligible.
const maxShards = 16

// shardCount returns the fixed shard count for a topology with spp
// switches per stage.
func shardCount(spp int) int {
	if spp < maxShards {
		return spp
	}
	return maxShards
}

// Gang phase numbers (the argument Step hands to parallel.Gang.Run).
const (
	phaseArbitrate = iota
	phaseMove
	phaseInject
)

// Sim is one instantiated network.
type Sim struct {
	cfg    Config
	top    *omega.Topology
	stages [][]*sw.Switch
	srcQ   []pktq.Queue // blocking backlog per network input; shard-partitioned
	cycle  int64
	// warmupBoundary is the cycle measurement began; packets born earlier
	// are excluded from latency statistics.
	warmupBoundary int64
	// measured counts measuring Steps; Collect reports it as the result's
	// MeasureCycles so partial (cancelled) runs describe themselves.
	measured int64
	// measuring is the current Step's measurement flag, published to the
	// gang workers before the first phase barrier of the cycle.
	measuring bool

	// shards partition every stage's switches into contiguous ranges; all
	// mutable per-cycle state lives in them. shardOfSw maps a switch index
	// to its owner.
	shards    []*shard
	shardOfSw []int32
	// workers is the effective intra-run worker count; gang is the
	// lockstep crew driving the shards, observed or not, when workers > 1
	// (nil otherwise, and after Close).
	workers int
	gang    *parallel.Gang

	// backlog holds the coordinator-sampled global source-backlog summary
	// (it needs all shards' counters, so it cannot live in a partial).
	backlog stats.Summary

	// down[st][si] is switch si of stage st's view of the room stage st+1
	// publishes; nil unless the protocol is blocking (see wireDownstream).
	down [][]sw.Downstream

	// needTick is set when the buffer kind's admission policy reads
	// packet ages (buffer.KindUsesClock); each shard then ticks its own
	// switches at the end of the inject phase. Clockless runs skip the
	// sweep entirely.
	needTick bool

	// metrics is the attached observer's registered instrument set
	// (SetObserver); nil means unobserved. Shards never write it: each
	// writes its own shardMetrics partial (shard.m), and the coordinator
	// folds the partials into it in the serial epilogue of every Step, so
	// observed runs stay on the gang. Every hot-path probe is nil-guarded,
	// so detached runs execute no instrument code and stay bit-identical —
	// the pattern damqvet's zeroalloc rule polices.
	metrics *netMetrics

	// flt is the attached fault-injection state (SetFaults); nil means
	// fault-free. Like metrics, every hot-path use sits behind a nil
	// check, so fault-free runs are bit-identical and allocation-free.
	flt *netFaults

	// recordDeliv, when set (RecordDeliveries), makes every shard log the
	// identity tuple of each measured delivery; Deliveries merges the
	// logs in shard order. Off by default — the log grows with the run.
	recordDeliv bool

	// pendingObs carries checkpointed instrument values on a restored
	// Sim until SetObserver re-registers the instruments and applies
	// them; nil otherwise. See netsim/checkpoint.go.
	pendingObs *obsState
	// ckptSize is the payload size of the last Checkpoint, which sizes
	// the next one's buffer: periodic checkpoints then build each stream
	// in one allocation instead of a chain of doublings.
	ckptSize int
}

// shard owns a contiguous range [lo, hi) of every stage's switches, the
// sources wired into its stage-0 range, and the deliveries leaving its
// last-stage range. All its mutable state — buffers (via the switches),
// arbitration stamps, RNG streams, measurement partials — is written only
// by its owner; everything a shard reads of its peers (the room downstream
// buffers publish, during arbitration; outboxes, during injection) is
// frozen by the phase barriers.
// damqvet's sharded rule enforces the ownership discipline at the source
// level.
type shard struct {
	sim    *Sim
	id     int
	lo, hi int // switch range [lo, hi) in every stage

	// srcs lists the network inputs feeding stage-0 switches [lo, hi),
	// ascending — the shuffle wiring strides them across the shards.
	srcs []int32

	// Per-shard RNG-backed generators, split from the master seed in
	// shard order so the streams are a pure function of (seed, shard).
	pattern traffic.Pattern
	lengths traffic.Lengths
	phase   *rng.Source // birth-phase offsets for this shard's deliveries
	alloc   packet.Alloc

	// partial accumulates this shard's measurement slice; Collect merges
	// the partials in shard order. Its Config field stays zero.
	partial Result
	// m is this shard's partial of the observer's instruments, nil when
	// unobserved; Step's epilogue folds and clears it (foldMetrics).
	m *shardMetrics
	// deliv logs this shard's measured deliveries when the sim's
	// recordDeliv flag is set; Deliveries merges the logs in shard order.
	deliv []Delivery
	// inFlight/srcBacklog/faulted are this shard's slices of the global
	// conservation counters. inFlight can go locally negative (a packet
	// injected here may be delivered by another shard); only the sum is
	// meaningful.
	inFlight   int64
	srcBacklog int64
	faulted    int64

	// lastArb[st][si-lo] is the cycle the switch last ran (or was fast-
	// forwarded through) arbitration; -1 before its first packet.
	// noteAccept replays the empty rounds since it when a packet reaches
	// a switch the arbitrate phase skipped (DESIGN.md §8).
	lastArb [][]int64

	grantScratch []arbiter.Grant
	// pending records the arbitrate phase's grants; pops are deferred to
	// the move phase so arbitration network-wide sees one pre-movement
	// snapshot.
	pending []pendingGrant
	// outbox[d] carries this shard's routed transfers into shard d's
	// switches; d drains it in the inject phase, after the barrier.
	outbox [][]xfer
}

// pendingGrant is one recorded arbitration outcome: switch si of stage st
// may pop grant g in the move phase.
type pendingGrant struct {
	st, si int32
	g      arbiter.Grant
}

// xfer is one routed inter-stage transfer: packet p enters input port in
// of switch si in stage st (OutPort already rewritten for that stage).
type xfer struct {
	p          *packet.Packet
	st, si, in int32
}

// New validates cfg and builds the network.
func New(cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	top, err := omega.New(cfg.Radix, cfg.Inputs)
	if err != nil {
		return nil, err
	}
	s := &Sim{cfg: cfg, top: top, needTick: buffer.KindUsesClock(cfg.BufferKind)}

	// Under blocking, every stage but the first publishes admission room
	// into one array per stage (see wireDownstream).
	blocking := cfg.Protocol == sw.Blocking
	var rooms [][]int32
	if blocking {
		rooms = make([][]int32, top.Stages())
	}
	for st := 0; st < top.Stages(); st++ {
		var row []*sw.Switch
		for i := 0; i < top.SwitchesPerStage(); i++ {
			swc, err := sw.New(sw.Config{
				Ports:      cfg.Radix,
				BufferKind: cfg.BufferKind,
				Capacity:   cfg.Capacity,
				Policy:     cfg.Policy,
				SharedPool: cfg.SharedPool,
				Sharing:    cfg.Sharing,
			})
			if err != nil {
				return nil, err
			}
			if blocking && st > 0 {
				// Attached now, while the new buffers are still in cache.
				n := cfg.Radix * cfg.Radix * swc.RoomClasses()
				if rooms[st] == nil {
					rooms[st] = make([]int32, top.SwitchesPerStage()*n)
				}
				swc.AttachRoom(rooms[st][i*n : (i+1)*n])
			}
			row = append(row, swc)
		}
		s.stages = append(s.stages, row)
	}
	s.srcQ = make([]pktq.Queue, cfg.Inputs)

	spp := top.SwitchesPerStage()
	nShards := shardCount(spp)
	s.shardOfSw = make([]int32, spp)
	// One master stream; each shard splits three private streams from it
	// in shard order, so the partition of randomness is a pure function
	// of (seed, shard) and never of the worker count.
	master := rng.New(cfg.Seed)
	for k := 0; k < nShards; k++ {
		sh := &shard{
			sim: s,
			id:  k,
			lo:  k * spp / nShards,
			hi:  (k + 1) * spp / nShards,
		}
		trafficSrc := master.Split()
		sh.phase = master.Split()
		lenSrc := master.Split()
		sh.pattern, err = cfg.buildPattern(trafficSrc)
		if err != nil {
			return nil, err
		}
		if cfg.Traffic.MaxSlots > cfg.Traffic.MinSlots {
			sh.lengths = traffic.UniformLengths{Lo: cfg.Traffic.MinSlots, Hi: cfg.Traffic.MaxSlots, Src: lenSrc}
		} else if cfg.Traffic.MinSlots > 1 {
			sh.lengths = traffic.Fixed(cfg.Traffic.MinSlots)
		} else {
			sh.lengths = traffic.Fixed(1)
		}
		sh.alloc.SetIDStream(uint64(k), uint64(nShards))

		own := sh.hi - sh.lo
		for si := sh.lo; si < sh.hi; si++ {
			s.shardOfSw[si] = int32(k)
		}
		sh.partial.LatencyHist = stats.NewHistogram(4096, float64(cfg.ClocksPerCycle))
		sh.partial.StageOccupancy = make([]stats.Summary, top.Stages())
		sh.lastArb = make([][]int64, top.Stages())
		for st := 0; st < top.Stages(); st++ {
			sh.lastArb[st] = make([]int64, own)
			for i := range sh.lastArb[st] {
				sh.lastArb[st][i] = -1
			}
		}
		sh.grantScratch = make([]arbiter.Grant, 0, cfg.Radix)
		sh.pending = make([]pendingGrant, 0, own*top.Stages()*cfg.Radix)
		sh.outbox = make([][]xfer, nShards)
		for d := range sh.outbox {
			sh.outbox[d] = make([]xfer, 0, own*cfg.Radix/nShards+cfg.Radix)
		}
		s.shards = append(s.shards, sh)
	}
	if blocking {
		s.wireDownstream(rooms)
	}
	for src := 0; src < cfg.Inputs; src++ {
		swIdx, _ := top.FirstStageSwitch(src)
		sh := s.shards[s.shardOfSw[swIdx]]
		sh.srcs = append(sh.srcs, int32(src))
	}

	w := cfg.Workers
	if w < 0 {
		w = parallel.Workers(0)
	}
	if w < 1 {
		w = 1
	}
	if w > nShards {
		w = nShards
	}
	s.workers = w
	if w > 1 {
		s.gang = parallel.NewGang(w, s.runPhase)
	}
	return s, nil
}

// Topology exposes the network's topology.
func (s *Sim) Topology() *omega.Topology { return s.top }

// Cycle returns the current network cycle.
func (s *Sim) Cycle() int64 { return s.cycle }

// Workers returns the effective intra-run worker count (after clamping).
func (s *Sim) Workers() int { return s.workers }

// InFlight returns the number of packets buffered in switches.
func (s *Sim) InFlight() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.inFlight
	}
	return n
}

// SourceBacklogLen returns the total packets waiting in source queues.
func (s *Sim) SourceBacklogLen() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.srcBacklog
	}
	return n
}

// Close releases the worker goroutines of a sharded Sim (no-op when the
// run is serial, idempotent always). A closed Sim keeps working — further
// Steps fall back to the serial path, which computes identical results.
// Run and RunCtx do not close the Sim; callers who construct a Sim with
// Workers > 1 and abandon it without Close leak its worker goroutines.
func (s *Sim) Close() {
	if s.gang != nil {
		s.gang.Close()
		s.gang = nil
	}
}

// noteAccept records that a packet entered switch si of stage st (owned
// by this shard). On the 0→1 occupancy transition the arbitrate phase
// stops skipping the switch, so its arbiter is fast-forwarded here
// through every empty round it was skipped for.
// damqvet:sharded audited: st,si is always an owned coordinate (si in [lo,hi)), so the switch and its arbiter belong to this shard's partition
// damqvet:hotpath
func (sh *shard) noteAccept(st, si int) {
	s := sh.sim
	swc := s.stages[st][si]
	if swc.Len() != 1 {
		return
	}
	if skipped := s.cycle - sh.lastArb[st][si-sh.lo]; skipped > 0 {
		swc.AdvanceIdle(skipped)
	}
	sh.lastArb[st][si-sh.lo] = s.cycle
}

// wireDownstream wires the blocking protocol's flow control. Every
// buffer of stages 1..S-1 publishes its admission room into rooms[st],
// one dense array per stage, and every switch of stages 0..S-2 reads the
// array of the stage after it through a Downstream view; the last stage
// feeds memories, which always accept. A buffer rewrites its row
// whenever its state changes: in the move and inject phases and the tick
// of the shard that owns it, and in the coordinator's stuck-slot faults
// and restore. The arbitrate phase only reads rows, after the barrier.
// Room is derived state, never checkpointed.
func (s *Sim) wireDownstream(rooms [][]int32) {
	k, spp := s.cfg.Radix, s.top.SwitchesPerStage()
	classes := s.stages[0][0].RoomClasses()
	row := k * classes // room registers per input buffer
	// Every stage is wired by the same shuffle, so one row of offsets
	// serves them all.
	base := make([]int32, spp*k)
	for i := range base {
		nsw, nport := s.top.NextStage(i/k, i%k)
		base[i] = int32(omega.Line(k, nsw, nport) * row)
	}
	s.down = make([][]sw.Downstream, len(s.stages)-1)
	for st := 1; st < len(s.stages); st++ {
		downs := make([]sw.Downstream, spp)
		for si := range downs {
			downs[si] = sw.Downstream{
				Room: rooms[st], Base: base[si*k : (si+1)*k : (si+1)*k],
				Div: s.top.RouteDivisor(st), Classes: classes,
			}
		}
		s.down[st-1] = downs
	}
}

// Step advances the network one cycle. Measurements accumulate in the
// shard partials when measuring is true (the warmup loop passes false);
// read them with Collect.
// damqvet:hotpath
func (s *Sim) Step(measuring bool) {
	// Fault schedule, cycle start: slots whose failure time has arrived
	// leave service before anything moves this cycle, so arbitration and
	// flow control see the shrunken capacity consistently. Coordinator-
	// serial: it precedes the first barrier.
	if s.flt != nil && s.flt.next < len(s.flt.events) {
		s.applyDueSlotFaults()
	}

	s.measuring = measuring
	if g := s.gang; g != nil {
		g.Run(phaseArbitrate)
		g.Run(phaseMove)
		g.Run(phaseInject)
	} else {
		// Serial path: same shards, same phase order, one goroutine; by
		// the sharding contract it produces byte-identical results.
		for _, sh := range s.shards {
			sh.phaseArbitrateRun()
		}
		for _, sh := range s.shards {
			sh.phaseMoveRun()
		}
		for _, sh := range s.shards {
			sh.phaseInjectRun()
		}
	}

	var backlog int64
	if measuring {
		// Global source-backlog sample: needs every shard's counter, so
		// the coordinator takes it after the last barrier.
		for _, sh := range s.shards {
			backlog += sh.srcBacklog
		}
		s.backlog.Add(float64(backlog))
		s.measured++
	}
	if s.metrics != nil {
		s.foldMetrics(measuring, backlog)
	}
	if s.cycle&(rebalanceStride-1) == rebalanceStride-1 {
		s.rebalanceFreeLists()
	}
	s.cycle++
}

// rebalanceStride is how often (in cycles) the coordinator evens the
// shard packet pools. Between rebalances the birth-heavy pools drift and
// may allocate; that growth is one-time (the surplus stays in
// circulation), so the stride trades a slightly higher pool high-water
// mark for epilogue work too cheap to see in the cycle benchmarks. Must
// be a power of two.
const rebalanceStride = 32

// rebalanceFreeLists evens the shards' packet pools in the serial
// epilogue. Packets recycle into the pool of the shard that retires
// them (delivery or discard site), not the shard that birthed them, so
// left alone the birth-heavy pools allocate every cycle while the
// delivery-heavy ones hoard — a steady allocation leak at scale.
// Free-list lengths are deterministic functions of the trajectory, the
// coordinator moves packets in fixed shard order, and a donated packet
// carries no observable state, so results are unchanged at any worker
// count.
func (s *Sim) rebalanceFreeLists() {
	if len(s.shards) < 2 {
		return
	}
	total := 0
	for _, sh := range s.shards {
		total += sh.alloc.FreeListLen()
	}
	target := total / len(s.shards)
	lo, hi := 0, 0 // next taker, next donor
	for {
		for lo < len(s.shards) && s.shards[lo].alloc.FreeListLen() >= target {
			lo++
		}
		for hi < len(s.shards) && s.shards[hi].alloc.FreeListLen() <= target {
			hi++
		}
		if lo == len(s.shards) || hi == len(s.shards) {
			return
		}
		taker, donor := s.shards[lo], s.shards[hi]
		n := target - taker.alloc.FreeListLen()
		if surplus := donor.alloc.FreeListLen() - target; surplus < n {
			n = surplus
		}
		donor.alloc.Donate(&taker.alloc, n)
	}
}

// runPhase executes one phase for every shard in worker w's static block
// — the function the gang drives. Workers own fixed contiguous shard
// ranges, so scheduling never affects which goroutine touches what.
func (s *Sim) runPhase(w, phase int) {
	lo := w * len(s.shards) / s.workers
	hi := (w + 1) * len(s.shards) / s.workers
	for k := lo; k < hi; k++ {
		sh := s.shards[k]
		switch phase {
		case phaseArbitrate:
			sh.phaseArbitrateRun()
		case phaseMove:
			sh.phaseMoveRun()
		case phaseInject:
			sh.phaseInjectRun()
		}
	}
}

// phaseArbitrateRun is phase 1 for one shard: arbitrate every owned
// switch that holds a packet against the pre-movement state, in (stage,
// switch) order, recording grants without popping. An empty switch is
// skipped on its occupancy counter and keeps its stamp, so noteAccept
// can replay the rounds it sat out. Mutates only this shard's arbiters
// and scratch; of its peers it reads only the room their buffers
// published, which no one writes until the phase barrier.
// damqvet:hotpath
func (sh *shard) phaseArbitrateRun() {
	s := sh.sim
	sh.pending = sh.pending[:0]
	for d := range sh.outbox {
		sh.outbox[d] = sh.outbox[d][:0]
	}
	for st, row := range s.stages {
		stamps := sh.lastArb[st]
		for si := sh.lo; si < sh.hi; si++ {
			if row[si].Empty() {
				continue
			}
			sh.arbitrateOne(st, si, row[si])
			stamps[si-sh.lo] = s.cycle
		}
	}
}

// arbitrateOne runs one switch's arbitration and records its grants.
// damqvet:hotpath
func (sh *shard) arbitrateOne(st, si int, swc *sw.Switch) {
	var down *sw.Downstream
	if st < len(sh.sim.down) {
		down = &sh.sim.down[st][si]
	}
	sh.grantScratch = swc.Arbitrate(down, sh.grantScratch[:0])
	for _, g := range sh.grantScratch {
		sh.pending = append(sh.pending, pendingGrant{st: int32(st), si: int32(si), g: g})
	}
}

// phaseMoveRun is phase 2 for one shard: pop the recorded grants in
// order; deliveries and fault drops are finished locally, inter-stage
// transfers are routed into the destination shard's outbox.
// damqvet:sharded audited: grants recorded in phase 1 name only owned switches; cross-shard handoff goes through the outboxes, drained after the barrier
// damqvet:hotpath
func (sh *shard) phaseMoveRun() {
	s := sh.sim
	measuring := s.measuring
	last := len(s.stages) - 1
	for i := range sh.pending {
		pg := &sh.pending[i]
		st, si := int(pg.st), int(pg.si)
		p := s.stages[st][si].PopGrant(pg.g)
		// A granted packet crosses the link leaving its switch; if that
		// link is down this cycle it is dropped here — counted as
		// faulted-discard, never silently lost. This applies under both
		// protocols: blocking flow control cannot see a link die after
		// the grant, exactly like the hardware.
		if s.flt != nil && sh.dropOnFaultedLink(st, si, pg.g.Out, measuring) {
			sh.inFlight--
			sh.alloc.Recycle(p)
			continue
		}
		if st == last {
			sh.inFlight--
			sh.deliver(p, measuring)
			sh.alloc.Recycle(p)
			continue
		}
		nsw, nport := s.top.NextStage(si, pg.g.Out)
		p.OutPort = s.top.RouteDigit(p.Dest, st+1)
		d := s.shardOfSw[nsw]
		sh.outbox[d] = append(sh.outbox[d], xfer{p: p, st: int32(st + 1), si: int32(nsw), in: int32(nport)})
	}
}

// phaseInjectRun is phase 3 for one shard: accept the transfers addressed
// to its switches (inboxes are drained in source-shard order, so the
// sequence is independent of the worker count), then generate and inject
// at its sources, then sample its occupancy (and, observed, its
// instrument tallies). Only this shard offers into
// its switches, and the shuffle wiring delivers at most one packet per
// input port per cycle, so admission decisions see exactly the state a
// serial sweep would.
// damqvet:sharded audited: inbox entries target owned switches by construction; the only instruments written are the shard's own partials (sh.m)
// damqvet:hotpath
func (sh *shard) phaseInjectRun() {
	s := sh.sim
	measuring := s.measuring
	for j := range s.shards {
		inbox := s.shards[j].outbox[sh.id]
		for i := range inbox {
			x := &inbox[i]
			st, si := int(x.st), int(x.si)
			if s.stages[st][si].Offer(int(x.in), x.p) {
				sh.noteAccept(st, si)
				continue
			}
			switch s.cfg.Protocol {
			case sw.Discarding:
				sh.inFlight--
				if measuring {
					sh.partial.DiscardedInNet++
					if sh.m != nil {
						sh.m.n.discardedNet++
						sh.notePolicyRefused(st, si, int(x.in), x.p)
					}
				}
				sh.alloc.Recycle(x.p)
			default:
				// The published room guaranteed admission; reaching here
				// is a simulator bug, not a model outcome.
				panic(fmt.Sprintf("netsim: blocked packet %v escaped upstream", x.p))
			}
		}
	}

	// Generation and injection over this shard's sources, ascending.
	for _, src32 := range sh.srcs {
		src := int(src32)
		dest, hot, ok := sh.pattern.Generate(src)
		if ok {
			p := sh.alloc.New(src, dest, sh.lengths.Draw(), s.cycle)
			p.Hot = hot
			sh.enqueueSource(p, measuring)
		}
		// Blocking: drain as much backlog as fits (at most one packet can
		// enter the stage-0 buffer per cycle — the input link carries one
		// packet per cycle).
		if s.cfg.Protocol == sw.Blocking && s.srcQ[src].Len() > 0 {
			if sh.inject(s.srcQ[src].Front()) {
				s.srcQ[src].PopFront()
				sh.srcBacklog--
				if measuring {
					sh.partial.Injected++
					if sh.m != nil {
						sh.m.n.injected++
					}
				}
			}
		}
	}

	if measuring {
		// Occupancy snapshots over this shard's switches, total and per
		// stage; incrementally maintained counters, so pure reads.
		for st := range s.stages {
			row := s.stages[st]
			for si := sh.lo; si < sh.hi; si++ {
				n := float64(row[si].Len())
				sh.partial.Occupancy.Add(n)
				sh.partial.StageOccupancy[st].Add(n)
			}
		}
		if sh.m != nil {
			sh.sampleMetrics()
		}
	}

	// Age clocks advance last, after every admission decision of the
	// cycle, so an age-reading policy (BSHARE) admits at one age all
	// cycle, and the room each buffer republishes on its tick is the
	// room the next arbitrate phase reads. Ticking only owned switches
	// keeps the sweep inside the shard partition.
	if s.needTick {
		for st := range s.stages {
			row := s.stages[st]
			for si := sh.lo; si < sh.hi; si++ {
				row[si].Tick()
			}
		}
	}
}

// enqueueSource routes a newborn packet toward the network.
// damqvet:sharded audited: the source queue index is an owned source; the only instruments written are the shard's own partials (sh.m)
// damqvet:hotpath
func (sh *shard) enqueueSource(p *packet.Packet, measuring bool) {
	s := sh.sim
	if measuring {
		sh.partial.Generated++
		if sh.m != nil {
			sh.m.n.generated++
		}
	}
	switch s.cfg.Protocol {
	case sw.Blocking:
		s.srcQ[p.Source].PushBack(p)
		sh.srcBacklog++
	default: // Discarding: offer immediately, drop on refusal.
		if sh.inject(p) {
			if measuring {
				sh.partial.Injected++
				if sh.m != nil {
					sh.m.n.injected++
				}
			}
		} else {
			if measuring {
				sh.partial.DiscardedAtEntry++
				if sh.m != nil {
					sh.m.n.discardedEntry++
					swIdx, port := s.top.FirstStageSwitch(p.Source)
					sh.notePolicyRefused(0, swIdx, port, p)
				}
			}
			sh.alloc.Recycle(p)
		}
	}
}

// notePolicyRefused classifies a discard: when the refusing buffer still
// had room for the packet, the admission policy — not pool exhaustion —
// turned it away, and the shard's net.policy.refused partial records
// that. Only reached under sh.m != nil, so the unobserved hot path never
// pays for the buffer probe; the pool-slot tally exists exactly when the
// policy-refused counter is registered.
// damqvet:hotpath
func (sh *shard) notePolicyRefused(st, si, in int, p *packet.Packet) {
	if sh.m.slots != nil && sh.sim.stages[st][si].Buffer(in).Free() >= p.Slots {
		sh.m.n.policyRefused++
	}
}

// inject attempts to place p into its stage-0 buffer. The source belongs
// to this shard, so the stage-0 switch does too.
// damqvet:sharded audited: FirstStageSwitch of an owned source is an owned switch
// damqvet:hotpath
func (sh *shard) inject(p *packet.Packet) bool {
	s := sh.sim
	swIdx, port := s.top.FirstStageSwitch(p.Source)
	p.OutPort = s.top.RouteDigit(p.Dest, 0)
	if !s.stages[0][swIdx].Offer(port, p) {
		return false
	}
	sh.noteAccept(0, swIdx)
	p.Injected = s.cycle
	sh.inFlight++
	return true
}

// deliver records a packet reaching its memory module. All deliveries in
// the measurement window count toward throughput; latency samples come
// only from packets born inside the window, so warmup transients do not
// bias the mean. The birth-phase draw comes from this shard's own phase
// stream, in this shard's delivery order — deterministic at any worker
// count.
// damqvet:hotpath
func (sh *shard) deliver(p *packet.Packet, measuring bool) {
	if !measuring {
		return
	}
	s := sh.sim
	res := &sh.partial
	res.Delivered++
	if s.recordDeliv {
		sh.deliv = append(sh.deliv, Delivery{
			ID: p.ID, Source: p.Source, Dest: p.Dest,
			Born: p.Born, Injected: p.Injected, DeliveredAt: s.cycle,
		})
	}
	if sh.m != nil {
		// The injection-based latency is logged for every measured
		// delivery (it needs no RNG), so its histogram total always equals
		// the delivered counter — the invariant ValidateSnapshot checks.
		c := int64(s.cfg.ClocksPerCycle)
		sh.m.n.delivered++
		sh.m.latInj = append(sh.m.latInj, (s.cycle+1)*c-(p.Injected+1)*c)
	}
	if p.Born < s.warmupBoundary {
		return
	}
	c := int64(s.cfg.ClocksPerCycle)
	bornClock := p.Born*c + int64(sh.phase.Intn(int(c)))
	deliveryClock := (s.cycle + 1) * c
	injectClock := (p.Injected + 1) * c
	res.LatencyHist.Add(float64(deliveryClock - bornClock))
	res.LatencyFromBorn.Add(float64(deliveryClock - bornClock))
	res.LatencyFromInjection.Add(float64(deliveryClock - injectClock))
	if sh.m != nil {
		// Born-based latency reuses the phase draw above, so observing it
		// consumes no extra randomness: observed and unobserved runs stay
		// bit-identical.
		sh.m.latBorn = append(sh.m.latBorn, deliveryClock-bornClock)
	}
	if p.Hot {
		res.HotLatency.Add(float64(deliveryClock - bornClock))
	} else {
		res.ColdLatency.Add(float64(deliveryClock - bornClock))
	}
}

// NewResult returns a Result with its measurement structures (latency
// histogram, per-stage occupancy summaries) pre-allocated for this
// simulation, and Config.Workers zeroed (an execution knob has no place
// in a result). Collect builds on it; it is exported for callers that
// want an empty, correctly shaped Result.
func (s *Sim) NewResult() *Result {
	cfg := s.cfg
	cfg.Workers = 0
	return &Result{
		Config:         cfg,
		LatencyHist:    stats.NewHistogram(4096, float64(s.cfg.ClocksPerCycle)),
		StageOccupancy: make([]stats.Summary, len(s.stages)),
	}
}

// Collect merges the per-shard measurement partials, in shard order, into
// one Result covering every measuring Step so far. It is non-destructive
// (call it again after more Steps for an updated view). The merge order
// is fixed by the shard partition — a pure function of the topology — so
// the Result is byte-identical at every worker count. The reported
// MeasureCycles is the measuring-step count, so per-cycle rates like
// Throughput stay correct for partial runs.
func (s *Sim) Collect() *Result {
	res := s.NewResult()
	res.Config.MeasureCycles = s.measured
	for _, sh := range s.shards {
		p := &sh.partial
		res.Generated += p.Generated
		res.Injected += p.Injected
		res.Delivered += p.Delivered
		res.DiscardedAtEntry += p.DiscardedAtEntry
		res.DiscardedInNet += p.DiscardedInNet
		res.FaultedInNet += p.FaultedInNet
		res.LatencyFromBorn.Merge(&p.LatencyFromBorn)
		res.LatencyFromInjection.Merge(&p.LatencyFromInjection)
		res.HotLatency.Merge(&p.HotLatency)
		res.ColdLatency.Merge(&p.ColdLatency)
		res.Occupancy.Merge(&p.Occupancy)
		for st := range res.StageOccupancy {
			res.StageOccupancy[st].Merge(&p.StageOccupancy[st])
		}
		res.LatencyHist.Merge(p.LatencyHist)
	}
	res.SourceBacklog = s.backlog
	return res
}

// Run executes warmup then measurement and returns the collected
// results. The loops are driven by the cycle counter and the measured-
// step count rather than loop-local indices, so Run continues a
// checkpoint-restored Sim from exactly where it stopped — including a
// completed one, where it is a no-op returning the final Result.
func (s *Sim) Run() *Result {
	for s.cycle < s.cfg.WarmupCycles {
		s.Step(false)
	}
	if s.measured == 0 {
		s.warmupBoundary = s.cycle
	}
	for s.measured < s.cfg.MeasureCycles {
		s.Step(true)
	}
	return s.Collect()
}

// ctxCheckStride is how many cycles RunCtx simulates between context
// polls: rare enough to stay off the profile, frequent enough that an
// interrupt lands within milliseconds.
const ctxCheckStride = 256

// RunCtx is Run with cooperative cancellation: it polls ctx every
// ctxCheckStride cycles and, when cancelled, returns the partial Result
// together with ctx.Err(). The partial result describes itself — its
// Config.MeasureCycles is the cycles actually measured (Collect), so
// Throughput and the per-cycle rates stay correct and the caller can
// report "interrupted at N of M". An uncancelled RunCtx returns exactly
// what Run would.
func (s *Sim) RunCtx(ctx context.Context) (*Result, error) {
	return s.RunCtxCheckpoint(ctx, 0, nil)
}

// RunCtxCheckpoint is RunCtx with periodic checkpointing: when every > 0
// it calls save after each multiple of every cycles (and once more on
// cancellation, so the final checkpoint captures the drained cycle the
// partial Result describes). A non-nil save with every <= 0 is called
// only on cancellation — the CLI's "checkpoint on interrupt, not
// periodically" mode. Like Run, the loops continue a restored Sim from
// its checkpointed position. A save error aborts the run.
func (s *Sim) RunCtxCheckpoint(ctx context.Context, every int64, save func() error) (*Result, error) {
	final := func(err error) (*Result, error) {
		res := s.Collect()
		if err != nil && save != nil {
			if serr := save(); serr != nil {
				return res, serr
			}
		}
		return res, err
	}
	for i := int64(0); s.cycle < s.cfg.WarmupCycles; i++ {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return final(ctx.Err())
		}
		s.Step(false)
		if every > 0 && s.cycle%every == 0 {
			if err := save(); err != nil {
				return s.Collect(), err
			}
		}
	}
	if s.measured == 0 {
		s.warmupBoundary = s.cycle
	}
	for i := int64(0); s.measured < s.cfg.MeasureCycles; i++ {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return final(ctx.Err())
		}
		s.Step(true)
		if every > 0 && s.cycle%every == 0 {
			if err := save(); err != nil {
				return s.Collect(), err
			}
		}
	}
	return s.Collect(), nil
}
