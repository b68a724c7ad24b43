package eventsim

import (
	"fmt"

	"damq/internal/buffer"
	"damq/internal/omega"
	"damq/internal/packet"
	"damq/internal/pktq"
	"damq/internal/rng"
	"damq/internal/stats"
)

// Config parameterizes an asynchronous Omega-network simulation.
type Config struct {
	Radix      int // default 4
	Inputs     int // default 64
	BufferKind buffer.Kind
	Capacity   int // slots per input buffer, default 4

	// RouteDelay is the idle-path turn-around per switch in cycles
	// (Table 1: 4). Overhead is the per-packet framing on a link in
	// cycles (start bit + header + length: 3).
	RouteDelay int64
	Overhead   int64

	// MinBytes/MaxBytes bound the uniform payload-size distribution
	// (default 8..8, one slot). Slots per packet = ceil(bytes/8).
	MinBytes, MaxBytes int

	// Load is the offered load as a fraction of link capacity: each
	// source's long-run transmitted-cycles fraction. Sources are
	// renewal processes with geometric interarrivals.
	Load float64

	// HotFraction re-addresses that fraction of packets to HotDest
	// (0 = uniform destinations), mirroring netsim's hot-spot pattern.
	HotFraction float64
	HotDest     int

	// Warmup and Measure are simulation spans in cycles.
	Warmup  int64
	Measure int64
	Seed    uint64
}

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
	if c.RouteDelay == 0 {
		c.RouteDelay = 4
	}
	if c.Overhead == 0 {
		c.Overhead = 3
	}
	if c.MinBytes == 0 {
		c.MinBytes = 8
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = c.MinBytes
	}
	if c.Warmup == 0 {
		c.Warmup = 20_000
	}
	if c.Measure == 0 {
		c.Measure = 100_000
	}
	return c
}

// Result aggregates an asynchronous run.
type Result struct {
	Config    Config
	Generated int64
	Delivered int64 // deliveries inside the measurement window
	// Latency is generation -> tail-at-sink, in cycles, for packets born
	// inside the window.
	Latency stats.Summary
	// LinkUtilization is delivered payload+overhead cycles per sink per
	// measured cycle — the async analogue of delivered throughput.
	LinkUtilization float64
}

// Sim is one asynchronous network instance.
type Sim struct {
	cfg Config
	top *omega.Topology
	eng Engine

	// Per stage, per switch, per port state.
	bufs         [][][]*buffer.Composed // [stage][switch][input]
	outBusyUntil [][][]int64            // [stage][switch][output]
	readCount    [][][]int              // concurrent reads per input buffer
	transmitting [][][]bool             // per switch, flat [in*radix+out]: pairs mid-transmission
	rr           [][]int                // per-switch rotating fairness offset

	srcQ         []pktq.Queue // per-source injection backlog (ring, shrink-on-drain)
	srcBusyUntil []int64

	gens  []*rng.Source // per-source generation streams
	sizes *rng.Source
	alloc packet.Alloc

	measureStart, measureEnd int64
	res                      *Result
	busyCycles               int64 // link cycles delivered at sinks in window

	// onDeliver, when non-nil, observes every delivery as it happens.
	// The engine-equivalence tests use it to pin the typed engine's
	// per-packet delivery times and order against the seed engine;
	// production runs leave it nil.
	onDeliver func(p *packet.Packet, at int64)
}

// New validates and builds the simulation.
func New(cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	top, err := omega.New(cfg.Radix, cfg.Inputs)
	if err != nil {
		return nil, err
	}
	if cfg.Load < 0 || cfg.Load > 1 {
		return nil, fmt.Errorf("eventsim: load %v out of [0,1]", cfg.Load)
	}
	if cfg.MinBytes < 1 || cfg.MaxBytes < cfg.MinBytes || cfg.MaxBytes > 32 {
		return nil, fmt.Errorf("eventsim: payload bounds %d..%d invalid", cfg.MinBytes, cfg.MaxBytes)
	}
	if cfg.HotFraction < 0 || cfg.HotFraction > 1 {
		return nil, fmt.Errorf("eventsim: hot fraction %v out of [0,1]", cfg.HotFraction)
	}
	if cfg.HotFraction > 0 && (cfg.HotDest < 0 || cfg.HotDest >= cfg.Inputs) {
		return nil, fmt.Errorf("eventsim: hot destination %d out of range", cfg.HotDest)
	}
	s := &Sim{cfg: cfg, top: top}
	master := rng.New(cfg.Seed)
	s.sizes = master.Split()
	for i := 0; i < cfg.Inputs; i++ {
		s.gens = append(s.gens, master.Split())
	}

	for st := 0; st < top.Stages(); st++ {
		var bufRow [][]*buffer.Composed
		var busyRow [][]int64
		var readRow [][]int
		var txRow [][]bool
		for sw := 0; sw < top.SwitchesPerStage(); sw++ {
			bs := make([]*buffer.Composed, cfg.Radix)
			for in := range bs {
				b, err := buffer.New(buffer.Config{
					Kind:       cfg.BufferKind,
					NumOutputs: cfg.Radix,
					Capacity:   cfg.Capacity,
				})
				if err != nil {
					return nil, err
				}
				bs[in] = b
			}
			bufRow = append(bufRow, bs)
			busyRow = append(busyRow, make([]int64, cfg.Radix))
			readRow = append(readRow, make([]int, cfg.Radix))
			txRow = append(txRow, make([]bool, cfg.Radix*cfg.Radix))
		}
		s.bufs = append(s.bufs, bufRow)
		s.outBusyUntil = append(s.outBusyUntil, busyRow)
		s.readCount = append(s.readCount, readRow)
		s.transmitting = append(s.transmitting, txRow)
		s.rr = append(s.rr, make([]int, top.SwitchesPerStage()))
	}
	s.srcQ = make([]pktq.Queue, cfg.Inputs)
	s.srcBusyUntil = make([]int64, cfg.Inputs)
	return s, nil
}

// duration is a packet's link occupancy in cycles.
// damqvet:hotpath
func (s *Sim) duration(p *packet.Packet) int64 {
	return s.cfg.Overhead + int64(p.Bytes)
}

// meanDuration is the expected link occupancy of one packet.
func (s *Sim) meanDuration() float64 {
	return float64(s.cfg.Overhead) + float64(s.cfg.MinBytes+s.cfg.MaxBytes)/2
}

// dispatch routes one typed event to its handler: the switch is the
// whole of what the seed engine used per-event closures for.
// damqvet:hotpath
func (s *Sim) dispatch(ev Event) {
	switch ev.kind {
	case evGenerate:
		s.generate(int(ev.a))
	case evKickSource:
		s.kickSource(int(ev.a))
	case evKickSwitch:
		s.kickSwitch(int(ev.a), int(ev.b))
	case evCompleteTx:
		s.completeTx(int(ev.a), int(ev.b), int(ev.c), int(ev.d))
	case evDeliver:
		s.deliver(ev.p)
	}
}

// runUntil executes events until none remain at or before limit and
// returns the number executed.
// damqvet:hotpath
func (s *Sim) runUntil(limit int64) int {
	n := 0
	for {
		ev, ok := s.eng.PopUntil(limit)
		if !ok {
			return n
		}
		s.dispatch(ev)
		n++
	}
}

// scheduleGeneration plants source src's next packet birth.
// damqvet:hotpath
func (s *Sim) scheduleGeneration(src int) {
	if s.cfg.Load <= 0 {
		return
	}
	p := s.cfg.Load / s.meanDuration()
	gap := int64(s.gens[src].Geometric(p))
	s.eng.After(gap, Event{kind: evGenerate, a: int32(src)})
}

// generate births one packet at source src and rearms the process.
// damqvet:hotpath
func (s *Sim) generate(src int) {
	nbytes := s.sizes.IntnRange(s.cfg.MinBytes, s.cfg.MaxBytes)
	var dest int
	if s.cfg.HotFraction > 0 && s.gens[src].Bool(s.cfg.HotFraction) {
		dest = s.cfg.HotDest
	} else {
		dest = s.gens[src].Intn(s.cfg.Inputs)
	}
	p := s.alloc.New(src, dest, (nbytes+7)/8, s.eng.Now())
	p.Bytes = nbytes
	if s.res != nil && s.eng.Now() >= s.measureStart && s.eng.Now() < s.measureEnd {
		s.res.Generated++
	}
	s.srcQ[src].PushBack(p)
	s.kickSource(src)
	s.scheduleGeneration(src)
}

// kickSource tries to begin injecting source src's head packet.
// damqvet:hotpath
func (s *Sim) kickSource(src int) {
	now := s.eng.Now()
	q := &s.srcQ[src]
	if q.Len() == 0 || s.srcBusyUntil[src] > now {
		return
	}
	p := q.Front()
	swIdx, port := s.top.FirstStageSwitch(src)
	b := s.bufs[0][swIdx][port]
	out := s.top.RouteDigit(p.Dest, 0)
	if !b.CanAcceptOut(p, out) {
		return // retried when the stage-0 buffer frees slots
	}
	q.PopFront()
	dur := s.duration(p)
	s.srcBusyUntil[src] = now + dur
	p.OutPort = out
	p.ReadyAt = now + s.cfg.RouteDelay
	p.Injected = now
	if !b.Offer(p) {
		panic("eventsim: stage-0 buffer refused a probed packet")
	}
	s.eng.At(p.ReadyAt, Event{kind: evKickSwitch, a: 0, b: int32(swIdx)})
	s.eng.At(now+dur, Event{kind: evKickSource, a: int32(src)})
}

// kickSwitch runs the grant loop of one switch: every idle output picks
// the longest ready, unblocked queue among buffers with read capacity.
// A rotating offset breaks queue-length ties fairly across inputs.
// damqvet:hotpath
func (s *Sim) kickSwitch(st, sw int) {
	now := s.eng.Now()
	s.rr[st][sw]++
	tx := s.transmitting[st][sw]
	for out := 0; out < s.cfg.Radix; out++ {
		if s.outBusyUntil[st][sw][out] > now {
			continue
		}
		bestIn := -1
		bestLen := 0
		for k := 0; k < s.cfg.Radix; k++ {
			in := (k + s.rr[st][sw]) % s.cfg.Radix
			b := s.bufs[st][sw][in]
			if s.readCount[st][sw][in] >= b.MaxReadsPerCycle() {
				continue
			}
			if tx[in*s.cfg.Radix+out] {
				continue
			}
			p := b.Head(out)
			if p == nil || p.ReadyAt > now {
				continue
			}
			if !s.downstreamAccepts(st, sw, out, p) {
				continue
			}
			if l := b.QueueLen(out); bestIn == -1 || l > bestLen {
				bestIn, bestLen = in, l
			}
		}
		if bestIn >= 0 {
			s.startTx(st, sw, bestIn, out)
		}
	}
}

// downstreamAccepts probes the next hop's buffer (blocking flow control).
// damqvet:hotpath
func (s *Sim) downstreamAccepts(st, sw, out int, p *packet.Packet) bool {
	if st == s.top.Stages()-1 {
		return true // sinks always accept
	}
	nsw, nport := s.top.NextStage(sw, out)
	return s.bufs[st+1][nsw][nport].CanAcceptOut(p, s.top.RouteDigit(p.Dest, st+1))
}

// startTx begins forwarding the head of (st, sw, in)'s queue for out.
// damqvet:hotpath
func (s *Sim) startTx(st, sw, in, out int) {
	now := s.eng.Now()
	b := s.bufs[st][sw][in]
	p := b.Head(out)
	dur := s.duration(p)
	s.outBusyUntil[st][sw][out] = now + dur
	s.readCount[st][sw][in]++
	s.transmitting[st][sw][in*s.cfg.Radix+out] = true

	last := st == s.top.Stages()-1
	if last {
		s.eng.At(now+dur, Event{kind: evDeliver, p: p})
	} else {
		// Reserve the downstream footprint now; the head becomes
		// routable there after RouteDelay (cut-through: the downstream
		// read chases this write). The downstream gets its own copy of
		// the packet record: the original must stay unmodified in this
		// switch's queue until the tail finishes leaving (completeTx),
		// mirroring the bytes existing in both buffers at once. The copy
		// comes from the allocator's free list and keeps the packet's
		// identity — it is the same packet in flight, not a new birth.
		nsw, nport := s.top.NextStage(sw, out)
		np := s.alloc.Clone(p)
		np.OutPort = s.top.RouteDigit(p.Dest, st+1)
		np.ReadyAt = now + s.cfg.RouteDelay
		if !s.bufs[st+1][nsw][nport].Offer(np) {
			panic("eventsim: downstream buffer refused a probed packet")
		}
		s.eng.At(np.ReadyAt, Event{kind: evKickSwitch, a: int32(st + 1), b: int32(nsw)})
	}

	s.eng.At(now+dur, Event{kind: evCompleteTx, a: int32(st), b: int32(sw), c: int32(in), d: int32(out)})
}

// completeTx finishes a transmission: the packet's slots leave this
// switch, the read port frees, and whoever was waiting gets another look.
// damqvet:hotpath
func (s *Sim) completeTx(st, sw, in, out int) {
	b := s.bufs[st][sw][in]
	p := b.Pop(out)
	if p == nil {
		panic("eventsim: completion found empty queue")
	}
	s.readCount[st][sw][in]--
	s.transmitting[st][sw][in*s.cfg.Radix+out] = false
	// The record's bytes now live only downstream (or were delivered —
	// deliver runs before completeTx at the same timestamp, having been
	// scheduled first). Recycle the retired copy so a generation or hop
	// can reuse it.
	s.alloc.Recycle(p)
	s.kickSwitch(st, sw)
	// Freed slots unblock the upstream sender of this input port.
	line := omega.Line(s.cfg.Radix, sw, in)
	upLine := s.top.InverseShuffle(line)
	if st == 0 {
		s.kickSource(upLine)
	} else {
		usw, _ := omega.SwitchPort(s.cfg.Radix, upLine)
		s.kickSwitch(st-1, usw)
	}
}

// deliver records a packet's tail reaching its memory module.
// damqvet:hotpath
func (s *Sim) deliver(p *packet.Packet) {
	now := s.eng.Now()
	if s.onDeliver != nil {
		s.onDeliver(p, now)
	}
	if s.res == nil || now < s.measureStart || now >= s.measureEnd {
		return
	}
	s.res.Delivered++
	s.busyCycles += s.duration(p)
	if p.Born >= s.measureStart {
		s.res.Latency.Add(float64(now - p.Born))
	}
}

// InFlight counts buffered packets (diagnostics and conservation tests).
func (s *Sim) InFlight() int {
	n := 0
	for _, stage := range s.bufs {
		for _, sw := range stage {
			for _, b := range sw {
				n += b.Len()
			}
		}
	}
	return n
}

// startSources plants every source's first generation event.
func (s *Sim) startSources() {
	for src := 0; src < s.cfg.Inputs; src++ {
		s.scheduleGeneration(src)
	}
}

// Run executes warmup + measurement and returns the results.
func (s *Sim) Run() *Result {
	s.startSources()
	s.measureStart = s.cfg.Warmup
	s.measureEnd = s.cfg.Warmup + s.cfg.Measure
	s.res = &Result{Config: s.cfg}
	s.runUntil(s.measureEnd)
	s.res.LinkUtilization = float64(s.busyCycles) /
		(float64(s.cfg.Inputs) * float64(s.cfg.Measure))
	return s.res
}
