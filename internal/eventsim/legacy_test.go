package eventsim

// This file preserves the seed implementation — the closure-valued
// container/heap engine and the map/append-slice network state — under
// legacy* names, as the behavioural reference the typed calendar-queue
// rewrite is pinned against. TestAsyncEngineMatchesLegacy replays
// identical configurations through both and requires bit-identical
// per-packet deliveries and aggregate results; BenchmarkLegacyAsync*
// time it so the before/after table in EXPERIMENTS.md E9 stays
// regenerable. Test-only on purpose: damqvet ignores _test.go files, so
// the container/heap use and per-event closures here don't trip the
// hot-path rules the production engine is held to.

import (
	"container/heap"
	"fmt"

	"damq/internal/buffer"
	"damq/internal/omega"
	"damq/internal/packet"
	"damq/internal/rng"
	"damq/internal/traffic"
)

// legacyEngine is the seed deterministic discrete-event executor.
type legacyEngine struct {
	pq  legacyEventQueue
	seq uint64
	now int64
}

type legacyEvent struct {
	at  int64
	seq uint64 // tie-break: FIFO among same-time events, for determinism
	fn  func()
}

type legacyEventQueue []legacyEvent

func (q legacyEventQueue) Len() int { return len(q) }
func (q legacyEventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q legacyEventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *legacyEventQueue) Push(x any)   { *q = append(*q, x.(legacyEvent)) }
func (q *legacyEventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

func (e *legacyEngine) Now() int64 { return e.now }

func (e *legacyEngine) At(t int64, fn func()) {
	if t < e.now {
		panic("eventsim: scheduling into the past")
	}
	e.seq++
	heap.Push(&e.pq, legacyEvent{at: t, seq: e.seq, fn: fn})
}

func (e *legacyEngine) After(delay int64, fn func()) { e.At(e.now+delay, fn) }

func (e *legacyEngine) RunUntil(limit int64) int {
	n := 0
	for len(e.pq) > 0 && e.pq[0].at <= limit {
		ev := heap.Pop(&e.pq).(legacyEvent)
		e.now = ev.at
		ev.fn()
		n++
	}
	if e.now < limit {
		e.now = limit
	}
	return n
}

// legacySim is the seed asynchronous network simulation: one heap + one
// closure allocation per scheduled event, map-backed transmitting state,
// append-slice source queues, and a fresh heap copy per cut-through hop.
type legacySim struct {
	cfg Config
	top *omega.Topology
	eng legacyEngine

	bufs         [][][]buffer.Buffer
	outBusyUntil [][][]int64
	readCount    [][][]int
	transmitting [][]map[[2]int]bool
	rr           [][]int

	srcQ         [][]*packet.Packet
	srcBusyUntil []int64

	gens  []*rng.Source
	sizes *rng.Source
	alloc packet.Alloc

	measureStart, measureEnd int64
	res                      *Result
	busyCycles               int64

	onDeliver func(p *packet.Packet, at int64)
}

func newLegacySim(cfg Config) (*legacySim, error) {
	cfg = cfg.withDefaults()
	top, err := omega.New(cfg.Radix, cfg.Inputs)
	if err != nil {
		return nil, err
	}
	s := &legacySim{cfg: cfg, top: top}
	master := rng.New(cfg.Seed)
	s.sizes = master.Split()
	for i := 0; i < cfg.Inputs; i++ {
		s.gens = append(s.gens, master.Split())
	}

	for st := 0; st < top.Stages(); st++ {
		var bufRow [][]buffer.Buffer
		var busyRow [][]int64
		var readRow [][]int
		var txRow []map[[2]int]bool
		for sw := 0; sw < top.SwitchesPerStage(); sw++ {
			var bs []buffer.Buffer
			for in := 0; in < cfg.Radix; in++ {
				b, err := buffer.New(buffer.Config{
					Kind:       cfg.BufferKind,
					NumOutputs: cfg.Radix,
					Capacity:   cfg.Capacity,
				})
				if err != nil {
					return nil, err
				}
				bs = append(bs, b)
			}
			bufRow = append(bufRow, bs)
			busyRow = append(busyRow, make([]int64, cfg.Radix))
			readRow = append(readRow, make([]int, cfg.Radix))
			txRow = append(txRow, make(map[[2]int]bool))
		}
		s.bufs = append(s.bufs, bufRow)
		s.outBusyUntil = append(s.outBusyUntil, busyRow)
		s.readCount = append(s.readCount, readRow)
		s.transmitting = append(s.transmitting, txRow)
		s.rr = append(s.rr, make([]int, top.SwitchesPerStage()))
	}
	s.srcQ = make([][]*packet.Packet, cfg.Inputs)
	s.srcBusyUntil = make([]int64, cfg.Inputs)
	return s, nil
}

func (s *legacySim) duration(p *packet.Packet) int64 {
	return Overhead + int64(p.Bytes)
}

func (s *legacySim) meanDuration() float64 {
	return Overhead + float64(s.cfg.MinBytes+s.cfg.MaxBytes)/2
}

func (s *legacySim) scheduleGeneration(src int) {
	if s.cfg.Load <= 0 {
		return
	}
	p := s.cfg.Load / s.meanDuration()
	gap := int64(s.gens[src].Geometric(p))
	s.eng.After(gap, func() { s.generate(src) })
}

func (s *legacySim) generate(src int) {
	nbytes := s.sizes.IntnRange(s.cfg.MinBytes, s.cfg.MaxBytes)
	var dest int
	if s.cfg.HotFraction > 0 && s.gens[src].Bool(s.cfg.HotFraction) {
		dest = traffic.HotModule
	} else {
		dest = s.gens[src].Intn(s.cfg.Inputs)
	}
	p := s.alloc.New(src, dest, (nbytes+7)/8, s.eng.Now())
	p.Bytes = nbytes
	if s.res != nil && s.eng.Now() >= s.measureStart && s.eng.Now() < s.measureEnd {
		s.res.Generated++
	}
	s.srcQ[src] = append(s.srcQ[src], p)
	s.kickSource(src)
	s.scheduleGeneration(src)
}

func (s *legacySim) kickSource(src int) {
	now := s.eng.Now()
	if len(s.srcQ[src]) == 0 || s.srcBusyUntil[src] > now {
		return
	}
	p := s.srcQ[src][0]
	swIdx, port := s.top.FirstStageSwitch(src)
	probe := *p
	probe.OutPort = s.top.RouteDigit(p.Dest, 0)
	if !s.bufs[0][swIdx][port].CanAccept(&probe) {
		return // retried when the stage-0 buffer frees slots
	}
	s.srcQ[src][0] = nil
	s.srcQ[src] = s.srcQ[src][1:]
	dur := s.duration(p)
	s.srcBusyUntil[src] = now + dur
	p.OutPort = probe.OutPort
	p.ReadyAt = now + RouteDelay
	p.Injected = now
	if err := s.bufs[0][swIdx][port].Accept(p); err != nil {
		panic(err)
	}
	s.eng.At(p.ReadyAt, func() { s.kickSwitch(0, swIdx) })
	s.eng.At(now+dur, func() { s.kickSource(src) })
}

func (s *legacySim) kickSwitch(st, sw int) {
	now := s.eng.Now()
	s.rr[st][sw]++
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
			if s.transmitting[st][sw][[2]int{in, out}] {
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

func (s *legacySim) downstreamAccepts(st, sw, out int, p *packet.Packet) bool {
	if st == s.top.Stages()-1 {
		return true // sinks always accept
	}
	nsw, nport := s.top.NextStage(sw, out)
	probe := *p
	probe.OutPort = s.top.RouteDigit(p.Dest, st+1)
	return s.bufs[st+1][nsw][nport].CanAccept(&probe)
}

func (s *legacySim) startTx(st, sw, in, out int) {
	now := s.eng.Now()
	b := s.bufs[st][sw][in]
	p := b.Head(out)
	dur := s.duration(p)
	s.outBusyUntil[st][sw][out] = now + dur
	s.readCount[st][sw][in]++
	s.transmitting[st][sw][[2]int{in, out}] = true

	last := st == s.top.Stages()-1
	if last {
		s.eng.At(now+dur, func() { s.deliver(p) })
	} else {
		nsw, nport := s.top.NextStage(sw, out)
		np := *p
		np.OutPort = s.top.RouteDigit(p.Dest, st+1)
		np.ReadyAt = now + RouteDelay
		if err := s.bufs[st+1][nsw][nport].Accept(&np); err != nil {
			panic(fmt.Sprintf("eventsim: downstream accept after probe: %v", err))
		}
		s.eng.At(np.ReadyAt, func() { s.kickSwitch(st+1, nsw) })
	}

	s.eng.At(now+dur, func() { s.completeTx(st, sw, in, out) })
}

func (s *legacySim) completeTx(st, sw, in, out int) {
	b := s.bufs[st][sw][in]
	if b.Pop(out) == nil {
		panic("eventsim: completion found empty queue")
	}
	s.readCount[st][sw][in]--
	delete(s.transmitting[st][sw], [2]int{in, out})
	s.kickSwitch(st, sw)
	line := omega.Line(s.cfg.Radix, sw, in)
	upLine := s.top.InverseShuffle(line)
	if st == 0 {
		s.kickSource(upLine)
	} else {
		usw, _ := omega.SwitchPort(s.cfg.Radix, upLine)
		s.kickSwitch(st-1, usw)
	}
}

func (s *legacySim) deliver(p *packet.Packet) {
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

func (s *legacySim) Run() *Result {
	for src := 0; src < s.cfg.Inputs; src++ {
		s.scheduleGeneration(src)
	}
	s.measureStart = s.cfg.Warmup
	s.measureEnd = s.cfg.Warmup + s.cfg.Measure
	s.res = &Result{Config: s.cfg}
	s.eng.RunUntil(s.measureEnd)
	s.res.LinkUtilization = float64(s.busyCycles) /
		(float64(s.cfg.Inputs) * float64(s.cfg.Measure))
	return s.res
}
