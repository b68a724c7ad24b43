package eventsim

import (
	"errors"
	"math"
	"sort"
	"testing"

	"damq/internal/buffer"
	"damq/internal/cfgerr"
	"damq/internal/rng"
)

// drain pops events at or before limit, appending their a-field markers
// to *order, and returns how many it executed.
func drain(e *Engine, limit int64, order *[]int) int {
	n := 0
	for {
		ev, ok := e.PopUntil(limit)
		if !ok {
			return n
		}
		*order = append(*order, int(ev.a))
		n++
	}
}

func TestEngineOrdering(t *testing.T) {
	var e Engine
	var order []int
	e.At(10, Event{a: 2})
	e.At(5, Event{a: 1})
	e.At(10, Event{a: 3}) // same time: FIFO
	e.At(20, Event{a: 4})
	n := drain(&e, 15, &order)
	if n != 3 {
		t.Fatalf("executed %d events", n)
	}
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 15 {
		t.Fatalf("now = %d", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	drain(&e, 100, &order)
	if len(order) != 4 {
		t.Fatal("remaining event not executed")
	}
}

func TestEngineCascade(t *testing.T) {
	var e Engine
	count := 0
	e.At(0, Event{})
	for {
		if _, ok := e.PopUntil(100); !ok {
			break
		}
		count++
		if count < 10 {
			e.After(3, Event{})
		}
	}
	if count != 10 {
		t.Fatalf("count = %d", count)
	}
	if e.Now() != 100 {
		t.Fatalf("now = %d", e.Now())
	}
}

func TestEngineRejectsPast(t *testing.T) {
	var e Engine
	e.At(10, Event{})
	e.PopUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	e.At(5, Event{})
}

// TestEngineSameTimestampFIFO is the scheduler's ordering property test:
// a random event storm with heavy timestamp collisions must execute in
// exactly the order a stable sort by time would give — i.e. same-time
// events run in scheduling order, whatever the heap does internally.
func TestEngineSameTimestampFIFO(t *testing.T) {
	src := rng.New(42)
	var e Engine
	const n = 5000
	type ref struct {
		at  int64
		idx int
	}
	scheduled := make([]ref, 0, n)
	for i := 0; i < n; i++ {
		at := int64(src.Intn(97)) // ~50 collisions per timestamp
		e.At(at, Event{a: int32(i)})
		scheduled = append(scheduled, ref{at, i})
	}
	sort.SliceStable(scheduled, func(i, j int) bool { return scheduled[i].at < scheduled[j].at })
	var order []int
	if got := drain(&e, 1<<40, &order); got != n {
		t.Fatalf("executed %d of %d events", got, n)
	}
	for i, want := range scheduled {
		if order[i] != want.idx {
			t.Fatalf("position %d: got event %d, want %d (time %d)", i, order[i], want.idx, want.at)
		}
	}
}

// TestEngineStormMatchesReference interleaves random schedules and pops
// (exercising the free list's slot reuse mid-run) against a brute-force
// sort-stable reference queue.
func TestEngineStormMatchesReference(t *testing.T) {
	engineStorm(t, rng.New(7), func(src *rng.Source) int64 { return int64(src.Intn(50)) })
}

// TestEngineStormAcrossHorizon is the storm with delays that straddle
// the timing wheel's span: most land in the wheel, one in eight goes to
// the overflow heap and comes due while later events for the same cycle
// are scheduled inside the horizon.
func TestEngineStormAcrossHorizon(t *testing.T) {
	engineStorm(t, rng.New(11), func(src *rng.Source) int64 {
		if src.Intn(8) == 0 {
			return int64(src.IntnRange(200, 5_000))
		}
		return int64(src.Intn(50))
	})
}

// engineStorm runs 30000 push-biased random operations against the
// engine and a brute-force reference queue, auditing the calendar's
// invariants after every one.
func engineStorm(t *testing.T, src *rng.Source, delay func(*rng.Source) int64) {
	t.Helper()
	var e Engine
	type ref struct {
		at  int64
		seq int
	}
	var pending []ref
	seq := 0
	for op := 0; op < 30000; op++ {
		if src.Intn(5) > 1 || len(pending) == 0 { // push-biased
			at := e.Now() + delay(src)
			e.At(at, Event{a: int32(seq)})
			pending = append(pending, ref{at, seq})
			seq++
		} else {
			// Reference pop: earliest (at, seq) wins.
			best := 0
			for i, r := range pending {
				if r.at < pending[best].at || (r.at == pending[best].at && r.seq < pending[best].seq) {
					best = i
				}
			}
			want := pending[best]
			pending = append(pending[:best], pending[best+1:]...)
			ev, ok := e.PopUntil(want.at)
			if !ok {
				t.Fatalf("op %d: engine had no event at or before %d, reference has seq %d", op, want.at, want.seq)
			}
			if int(ev.a) != want.seq || e.Now() != want.at {
				t.Fatalf("op %d: popped event %d at %d, want event %d at %d", op, ev.a, e.Now(), want.seq, want.at)
			}
		}
		if err := e.checkOrder(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if e.Pending() != len(pending) {
			t.Fatalf("op %d: Pending %d, reference holds %d", op, e.Pending(), len(pending))
		}
	}
}

// TestEngineOverflowBeforeWheel pins the one ordering the wheel cannot
// get from append order alone: an event scheduled for time T from beyond
// the horizon sits in the overflow heap, and must still run before
// events scheduled for T later, from inside the horizon, in T's bucket.
func TestEngineOverflowBeforeWheel(t *testing.T) {
	var e Engine
	const T = 1_000
	e.At(T, Event{a: 1})           // overflow: T-0 >= wheelSize
	e.At(T, Event{a: 2})           // overflow, same time: FIFO behind 1
	e.At(T-wheelSize, Event{a: 0}) // overflow too; popping it moves time to T-wheelSize
	if len(e.over) != 3 {
		t.Fatalf("overflow heap holds %d events, want 3", len(e.over))
	}
	var order []int
	if n := drain(&e, T-wheelSize, &order); n != 1 || e.Now() != T-wheelSize {
		t.Fatalf("executed %d events, now %d", n, e.Now())
	}
	e.At(T, Event{a: 3}) // T-Now == wheelSize: still overflow
	e.PopUntil(T - wheelSize + 1)
	e.At(T, Event{a: 4}) // inside the horizon: bucket T&wheelMask
	e.At(T, Event{a: 5})
	e.At(T-1, Event{a: 6})
	if len(e.over) != 3 || e.queued != 3 {
		t.Fatalf("overflow %d, wheel %d; want 3 and 3", len(e.over), e.queued)
	}
	if err := e.checkOrder(); err != nil {
		t.Fatal(err)
	}
	drain(&e, 1<<40, &order)
	want := []int{0, 6, 1, 2, 3, 4, 5}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 1<<40 || e.Pending() != 0 {
		t.Fatalf("now %d, pending %d after drain", e.Now(), e.Pending())
	}
	// An empty wheel jumps straight to the overflow minimum.
	e.At(e.Now()+50_000, Event{a: 7})
	if ev, ok := e.PopUntil(1 << 41); !ok || ev.a != 7 || e.Now() != 1<<40+50_000 {
		t.Fatalf("jump popped %v (ok %v) at %d", ev.a, ok, e.Now())
	}
}

// TestCheckOrderCatchesCorruption hand-corrupts a healthy calendar and
// expects the self-check to name each fault.
func TestCheckOrderCatchesCorruption(t *testing.T) {
	build := func() *Engine {
		e := new(Engine)
		e.At(5, Event{a: 0})
		e.At(5, Event{a: 1})
		e.At(6, Event{a: 2})
		e.At(9_000, Event{a: 3})
		e.At(8_000, Event{a: 4})
		if err := e.checkOrder(); err != nil {
			t.Fatalf("healthy calendar: %v", err)
		}
		return e
	}
	for _, tc := range []struct {
		name    string
		corrupt func(e *Engine)
	}{
		{"foreign timestamp", func(e *Engine) { e.slots[e.tail[5]].next = e.head[6] }},
		{"sequence order", func(e *Engine) {
			first, second := e.head[5], e.slots[e.head[5]].next
			e.slots[first].next, e.slots[second].next = 0, first
			e.head[5], e.tail[5] = second, first
		}},
		{"link cycle", func(e *Engine) { e.slots[e.tail[5]].next = e.head[5] }},
		{"stale tail", func(e *Engine) { e.tail[5] = e.head[5] }},
		{"heap order", func(e *Engine) { e.over[0], e.over[1] = e.over[1], e.over[0] }},
		{"pending count", func(e *Engine) { e.queued++ }},
	} {
		e := build()
		tc.corrupt(e)
		if err := e.checkOrder(); err == nil {
			t.Errorf("%s: checkOrder accepted the corrupted calendar", tc.name)
		}
	}
}

// TestEngineArenaHighWater checks the free list actually recycles: slot
// arena growth must stop at the run's concurrency high-water mark, not
// track the total number of events ever scheduled.
func TestEngineArenaHighWater(t *testing.T) {
	var e Engine
	var order []int
	for round := 0; round < 64; round++ {
		base := e.Now()
		for i := 0; i < 100; i++ {
			e.At(base+int64(i%7), Event{a: int32(i)})
		}
		order = order[:0]
		if got := drain(&e, base+7, &order); got != 100 {
			t.Fatalf("round %d: executed %d of 100", round, got)
		}
	}
	if len(e.slots) > 128 {
		t.Fatalf("arena grew to %d slots for a 100-event working set", len(e.slots))
	}
}

func asyncCfg(kind buffer.Kind, load float64) Config {
	return Config{
		BufferKind: kind,
		Capacity:   4,
		Load:       load,
		Warmup:     5_000,
		Measure:    30_000,
		Seed:       3,
	}
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(c *Config)
		wants error
	}{
		{"load > 1", func(c *Config) { c.Load = 1.5 }, cfgerr.ErrBadLoad},
		{"negative load", func(c *Config) { c.Load = -0.1 }, cfgerr.ErrBadLoad},
		{"max < min bytes", func(c *Config) { c.MinBytes, c.MaxBytes = 8, 4 }, cfgerr.ErrBadPacketSize},
		{"oversized packets", func(c *Config) { c.MaxBytes = 99 }, cfgerr.ErrBadPacketSize},
		{"negative min bytes", func(c *Config) { c.MinBytes = -1 }, cfgerr.ErrBadPacketSize},
		{"negative warmup", func(c *Config) { c.Warmup = -1 }, cfgerr.ErrBadTiming},
		{"negative measure", func(c *Config) { c.Measure = -100 }, cfgerr.ErrBadTiming},
		{"radix 1", func(c *Config) { c.Radix = 1 }, cfgerr.ErrBadRadix},
		{"inputs not a power of radix", func(c *Config) { c.Inputs = 48 }, cfgerr.ErrBadRadix},
		{"hot fraction > 1", func(c *Config) { c.HotFraction = 1.5 }, cfgerr.ErrBadTraffic},
		{"SAMQ capacity not divisible by radix", func(c *Config) { c.BufferKind, c.Capacity = buffer.SAMQ, 5 }, cfgerr.ErrBadCapacity},
		{"negative capacity", func(c *Config) { c.Capacity = -4 }, cfgerr.ErrBadCapacity},
	} {
		cfg := asyncCfg(buffer.DAMQ, 0.5)
		tc.edit(&cfg)
		_, err := New(cfg)
		if !errors.Is(err, tc.wants) {
			t.Errorf("%s: New returned %v, want an error wrapping %q", tc.name, err, tc.wants)
		}
	}
}

// TestZeroLoadLatencyFloor: an uncontended 3-stage path delivers in
// stages*RouteDelay + Overhead + Bytes cycles.
func TestZeroLoadLatencyFloor(t *testing.T) {
	cfg := asyncCfg(buffer.DAMQ, 0.005)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.Latency.N() == 0 {
		t.Fatal("no packets measured")
	}
	floor := float64(3*4 + 3 + 8) // 23 cycles
	if res.Latency.Min() < floor {
		t.Fatalf("latency below floor: %v < %v", res.Latency.Min(), floor)
	}
	if res.Latency.Mean() > floor+3 {
		t.Fatalf("near-zero-load mean latency %v, want close to %v", res.Latency.Mean(), floor)
	}
}

// TestVCTLatencyLengthIndependent: under cut-through, a 32-byte packet's
// zero-load latency exceeds a 1-byte packet's by only the extra drain
// time (31 cycles), not by 3 hops x 31.
func TestVCTLatencyLengthIndependent(t *testing.T) {
	lat := func(bytes int) float64 {
		cfg := asyncCfg(buffer.DAMQ, 0.005)
		cfg.MinBytes, cfg.MaxBytes = bytes, bytes
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run().Latency.Min()
	}
	short, long := lat(1), lat(32)
	if got := long - short; got != 31 {
		t.Fatalf("latency delta = %v, want 31 (one drain, not per hop)", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		sim, err := New(asyncCfg(buffer.DAMQ, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.Latency.Mean() != b.Latency.Mean() {
		t.Fatal("same seed, different results")
	}
}

// TestThroughputTracksOfferBelowSaturation.
func TestThroughputTracksOfferBelowSaturation(t *testing.T) {
	for _, kind := range []buffer.Kind{buffer.FIFO, buffer.DAMQ} {
		sim, err := New(asyncCfg(kind, 0.25))
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Run()
		if math.Abs(res.LinkUtilization-0.25) > 0.02 {
			t.Fatalf("%v: utilization %v at offered 0.25", kind, res.LinkUtilization)
		}
	}
}

// TestAsyncDAMQBeatsFIFO: the paper's closing conjecture, in the
// asynchronous variable-length regime: DAMQ sustains higher utilization
// and lower latency than FIFO at the same storage.
func TestAsyncDAMQBeatsFIFO(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation runs")
	}
	util := map[buffer.Kind]float64{}
	for _, kind := range []buffer.Kind{buffer.FIFO, buffer.DAMQ} {
		cfg := asyncCfg(kind, 1.0)
		cfg.Capacity = 8
		cfg.MinBytes, cfg.MaxBytes = 1, 32
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		util[kind] = sim.Run().LinkUtilization
	}
	if util[buffer.DAMQ] <= util[buffer.FIFO] {
		t.Fatalf("async varlen: DAMQ %v !> FIFO %v", util[buffer.DAMQ], util[buffer.FIFO])
	}
}

// TestConservation: at the end of a run, generated packets are either
// delivered (inside or outside the window), buffered, queued at sources,
// or mid-flight duplicated downstream — the InFlight count must at least
// never exceed total buffering capacity.
func TestBufferBoundsRespected(t *testing.T) {
	cfg := asyncCfg(buffer.DAMQ, 1.0)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	// 3 stages x 16 switches x 4 buffers x 4 slots = 768 slots; each
	// packet is 1 slot here. A packet may appear in two buffers while in
	// flight, but never more.
	if got := sim.InFlight(); got > 768 {
		t.Fatalf("in-flight packets %d exceed total capacity", got)
	}
}

// TestAsyncHotSpotCeiling: the asynchronous model reproduces Table 6's
// structural result too — a 5% hot spot caps utilization near the hot
// link's share regardless of buffer design.
func TestAsyncHotSpotCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation runs")
	}
	for _, kind := range []buffer.Kind{buffer.FIFO, buffer.DAMQ} {
		cfg := asyncCfg(kind, 1.0)
		cfg.HotFraction = 0.05
		cfg.Warmup = 30_000
		cfg.Measure = 60_000
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		util := sim.Run().LinkUtilization
		// The hot link receives ~4.15x its capacity of offered traffic,
		// so delivered utilization collapses toward ~0.24; asynchrony
		// loosens the bound a little but it must sit far below the
		// uniform-traffic saturation.
		if util > 0.40 {
			t.Errorf("%v: hot-spot utilization %v did not collapse", kind, util)
		}
	}
}

func TestAsyncHotSpotValidation(t *testing.T) {
	cfg := asyncCfg(buffer.DAMQ, 0.5)
	cfg.HotFraction = 1.5
	if _, err := New(cfg); err == nil {
		t.Error("accepted hot fraction > 1")
	}
}

func TestRadix2Async(t *testing.T) {
	cfg := asyncCfg(buffer.DAMQ, 0.01)
	cfg.Radix = 2
	cfg.Inputs = 16 // 4 stages
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	floor := float64(4*4 + 3 + 8)
	if res.Latency.N() == 0 || res.Latency.Min() < floor {
		t.Fatalf("radix-2 latency floor violated: %v < %v", res.Latency.Min(), floor)
	}
}
