package netsim

import (
	"math"
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/sw"
	"damq/internal/traffic"
)

func baseCfg(kind buffer.Kind, proto sw.Protocol, load float64) Config {
	return Config{
		BufferKind:    kind,
		Capacity:      4,
		Policy:        arbiter.Smart,
		Protocol:      proto,
		Traffic:       TrafficSpec{Kind: Uniform, Load: load},
		WarmupCycles:  500,
		MeasureCycles: 4000,
		Seed:          1,
	}
}

func TestNewValidation(t *testing.T) {
	cfg := baseCfg(buffer.FIFO, sw.Blocking, 0.5)
	cfg.Inputs = 63
	if _, err := New(cfg); err == nil {
		t.Error("accepted non-power inputs")
	}
	cfg = baseCfg(buffer.FIFO, sw.Blocking, 1.5)
	if _, err := New(cfg); err == nil {
		t.Error("accepted load > 1")
	}
	cfg = baseCfg(buffer.SAMQ, sw.Blocking, 0.5)
	cfg.Capacity = 5
	if _, err := New(cfg); err == nil {
		t.Error("accepted SAMQ capacity not divisible by radix")
	}
	cfg = baseCfg(buffer.FIFO, sw.Blocking, 0.5)
	cfg.Traffic.Kind = TrafficKind(99)
	if _, err := New(cfg); err == nil {
		t.Error("accepted unknown traffic kind")
	}
}

func TestDefaultsApplied(t *testing.T) {
	sim, err := New(Config{BufferKind: buffer.DAMQ, Traffic: TrafficSpec{Kind: Uniform, Load: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Topology().Inputs() != 64 || sim.Topology().Radix() != 4 {
		t.Fatal("defaults not applied")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		sim, err := New(baseCfg(buffer.DAMQ, sw.Blocking, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run()
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.Generated != b.Generated ||
		a.LatencyFromBorn.Mean() != b.LatencyFromBorn.Mean() {
		t.Fatalf("same seed, different results: %+v vs %+v", a.Delivered, b.Delivered)
	}
}

func TestSeedMatters(t *testing.T) {
	cfg := baseCfg(buffer.DAMQ, sw.Blocking, 0.5)
	simA, _ := New(cfg)
	cfg.Seed = 2
	simB, _ := New(cfg)
	if simA.Run().Generated == simB.Run().Generated {
		t.Fatal("different seeds produced identical generation counts (suspicious)")
	}
}

// TestBlockingConservation: under blocking no packet is ever lost:
// everything generated is delivered, in flight, or queued at a source.
func TestBlockingConservation(t *testing.T) {
	for _, kind := range buffer.Kinds() {
		sim, err := New(baseCfg(kind, sw.Blocking, 0.6))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			sim.Step(true)
		}
		res := sim.Collect()
		accounted := res.Delivered + sim.InFlight() + sim.SourceBacklogLen()
		if res.Generated != accounted {
			t.Fatalf("%v: generated %d != delivered %d + inflight %d + backlog %d",
				kind, res.Generated, res.Delivered, sim.InFlight(), sim.SourceBacklogLen())
		}
		if res.DiscardedAtEntry != 0 || res.DiscardedInNet != 0 {
			t.Fatalf("%v: blocking protocol discarded packets", kind)
		}
	}
}

// TestDiscardingConservation: generated = injected + discarded-at-entry;
// injected = delivered + discarded-in-net + in flight.
func TestDiscardingConservation(t *testing.T) {
	for _, kind := range buffer.Kinds() {
		sim, err := New(baseCfg(kind, sw.Discarding, 0.9))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			sim.Step(true)
		}
		res := sim.Collect()
		if res.Generated != res.Injected+res.DiscardedAtEntry {
			t.Fatalf("%v: generated %d != injected %d + entry discards %d",
				kind, res.Generated, res.Injected, res.DiscardedAtEntry)
		}
		if res.Injected != res.Delivered+res.DiscardedInNet+sim.InFlight() {
			t.Fatalf("%v: injected %d != delivered %d + net discards %d + inflight %d",
				kind, res.Injected, res.Delivered, res.DiscardedInNet, sim.InFlight())
		}
	}
}

// TestZeroLoadLatencyFloor: with near-zero traffic every packet takes the
// contention-free pipeline: ~42.5 clocks from birth (3 hops x 12 clocks +
// injection cycle - mean half-cycle birth phase), exactly 36 from
// injection.
func TestZeroLoadLatencyFloor(t *testing.T) {
	cfg := baseCfg(buffer.DAMQ, sw.Blocking, 0.02)
	cfg.MeasureCycles = 6000
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if m := res.LatencyFromInjection.Mean(); m < 36 || m > 37.5 {
		t.Fatalf("near-zero-load injection latency = %v, want just above the 36-clock floor", m)
	}
	if m := res.LatencyFromBorn.Mean(); m < 40 || m > 45 {
		t.Fatalf("zero-load born latency = %v, want ~42.5", m)
	}
}

// TestThroughputMatchesOfferBelowSaturation: a stable network delivers
// what is offered.
func TestThroughputMatchesOfferBelowSaturation(t *testing.T) {
	for _, kind := range buffer.Kinds() {
		sim, err := New(baseCfg(kind, sw.Blocking, 0.3))
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Run()
		if math.Abs(res.Throughput()-0.3) > 0.01 {
			t.Fatalf("%v: throughput %v at offered 0.3", kind, res.Throughput())
		}
	}
}

// TestSaturationOrdering reproduces Table 4's headline: at full offered
// load the DAMQ network sustains ~40%% more throughput than FIFO, with
// SAMQ and SAFC in between.
func TestSaturationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("long saturation runs")
	}
	thr := map[buffer.Kind]float64{}
	for _, kind := range buffer.Kinds() {
		cfg := baseCfg(kind, sw.Blocking, 1.0)
		cfg.WarmupCycles = 2000
		cfg.MeasureCycles = 8000
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		thr[kind] = sim.Run().Throughput()
	}
	if !(thr[buffer.DAMQ] > thr[buffer.SAFC] && thr[buffer.SAFC] > thr[buffer.SAMQ] && thr[buffer.SAMQ] > thr[buffer.FIFO]-0.02) {
		t.Fatalf("saturation ordering wrong: %v", thr)
	}
	if gain := thr[buffer.DAMQ] / thr[buffer.FIFO]; gain < 1.30 {
		t.Fatalf("DAMQ/FIFO saturation gain = %.2f, want >= 1.30", gain)
	}
}

// TestHotSpotEqualizesSaturation reproduces Table 6: with 5%% hot-spot
// traffic every buffer type tree-saturates at the same ~0.24 throughput.
func TestHotSpotEqualizesSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("long saturation runs")
	}
	for _, kind := range buffer.Kinds() {
		cfg := baseCfg(kind, sw.Blocking, 1.0)
		cfg.Traffic = TrafficSpec{Kind: HotSpot, Load: 1.0, HotFraction: 0.05}
		cfg.WarmupCycles = 3000
		cfg.MeasureCycles = 8000
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		thr := sim.Run().Throughput()
		if math.Abs(thr-0.24) > 0.02 {
			t.Fatalf("%v: hot-spot saturation = %v, want ~0.24", kind, thr)
		}
	}
}

// TestDiscardingDAMQBest reproduces Table 3's ordering at 0.5 load.
func TestDiscardingDAMQBest(t *testing.T) {
	frac := map[buffer.Kind]float64{}
	for _, kind := range buffer.Kinds() {
		cfg := baseCfg(kind, sw.Discarding, 0.5)
		cfg.MeasureCycles = 6000
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		frac[kind] = sim.Run().DiscardFraction()
	}
	if !(frac[buffer.DAMQ] < frac[buffer.FIFO] && frac[buffer.DAMQ] < frac[buffer.SAFC] && frac[buffer.DAMQ] < frac[buffer.SAMQ]) {
		t.Fatalf("DAMQ does not discard least: %v", frac)
	}
	if frac[buffer.DAMQ] > 0.01 {
		t.Fatalf("DAMQ discard at 0.5 load = %v, want < 1%%", frac[buffer.DAMQ])
	}
}

// TestPermutationIdentityDeliversAll: the identity permutation is
// conflict-free on an Omega network, so even FIFO at full load suffers no
// contention and latency sits at the floor.
func TestPermutationIdentityDeliversAll(t *testing.T) {
	cfg := baseCfg(buffer.FIFO, sw.Blocking, 1.0)
	cfg.Traffic = TrafficSpec{Kind: Permutation, Load: 1.0, Perm: traffic.Identity(64)}
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if math.Abs(res.Throughput()-1.0) > 0.01 {
		t.Fatalf("identity permutation throughput = %v", res.Throughput())
	}
	if res.LatencyFromInjection.Mean() != 36 {
		t.Fatalf("identity permutation latency = %v, want 36", res.LatencyFromInjection.Mean())
	}
}

// TestVariableLengthRuns: the variable-length extension must run and keep
// conservation; DAMQ must beat FIFO in saturation throughput there too.
func TestVariableLengthRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("long runs")
	}
	thr := map[buffer.Kind]float64{}
	for _, kind := range []buffer.Kind{buffer.FIFO, buffer.DAMQ} {
		cfg := baseCfg(kind, sw.Blocking, 1.0)
		cfg.Capacity = 8
		cfg.Traffic.MinSlots = 1
		cfg.Traffic.MaxSlots = 4
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		thr[kind] = sim.Run().Throughput()
	}
	if thr[buffer.DAMQ] <= thr[buffer.FIFO] {
		t.Fatalf("varlen: DAMQ %v !> FIFO %v", thr[buffer.DAMQ], thr[buffer.FIFO])
	}
}

// TestHotColdLatencySplit: hot packets must see (much) higher latency than
// cold ones near hot-spot saturation.
func TestHotColdLatencySplit(t *testing.T) {
	cfg := baseCfg(buffer.DAMQ, sw.Blocking, 0.22)
	cfg.Traffic = TrafficSpec{Kind: HotSpot, Load: 0.22, HotFraction: 0.05}
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 6000
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.HotLatency.N() == 0 || res.ColdLatency.N() == 0 {
		t.Fatal("latency split has empty classes")
	}
	if res.HotLatency.Mean() <= res.ColdLatency.Mean() {
		t.Fatalf("hot latency %v <= cold %v near saturation",
			res.HotLatency.Mean(), res.ColdLatency.Mean())
	}
}

// TestSmartVsDumbClose: Table 3's observation — arbitration policy barely
// moves the numbers at moderate load.
func TestSmartVsDumbClose(t *testing.T) {
	get := func(policy arbiter.Policy) float64 {
		cfg := baseCfg(buffer.DAMQ, sw.Blocking, 0.5)
		cfg.Policy = policy
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run().LatencyFromBorn.Mean()
	}
	smart, dumb := get(arbiter.Smart), get(arbiter.Dumb)
	if math.Abs(smart-dumb)/smart > 0.15 {
		t.Fatalf("smart %v vs dumb %v differ by more than 15%%", smart, dumb)
	}
}

func TestResultHelpersEmpty(t *testing.T) {
	var r Result
	if r.Throughput() != 0 || r.OfferedLoad() != 0 || r.DiscardFraction() != 0 {
		t.Fatal("empty result helpers should be 0")
	}
}
