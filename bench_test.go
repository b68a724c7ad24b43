package damq_test

// One benchmark per table and figure of the paper's evaluation, each
// regenerating (a quick-scale version of) the corresponding artifact.
// `go test -bench=. -benchmem` therefore re-runs the entire evaluation.
// EXPERIMENTS.md records full-scale numbers produced by omegasim -exp report.

import (
	"testing"

	"damq"
)

// freshSeed gives iteration i of a network benchmark its own seed. The
// experiments keep every completed network run for the life of the
// process, so repeating one seed would time memo lookups after the first
// iteration instead of simulations.
func freshSeed(i int) damq.Option { return damq.WithSeed(damq.QuickScale.Seed + uint64(i)) }

// BenchmarkTable1CutThrough regenerates Table 1: chip-level virtual
// cut-through turn-around measurement across packet lengths.
func BenchmarkTable1CutThrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := damq.ReproduceTable1()
		if err != nil {
			b.Fatal(err)
		}
		for _, ta := range res.TurnAround {
			if ta != 4 {
				b.Fatalf("turn-around %d", ta)
			}
		}
	}
}

// BenchmarkTable2Markov regenerates Table 2: the full exact Markov
// analysis (16 buffer configurations × 8 traffic levels).
func BenchmarkTable2Markov(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := damq.ReproduceTable2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Discarding regenerates Table 3: discarding Omega
// network, uniform traffic, smart vs dumb arbitration.
func BenchmarkTable3Discarding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := damq.ReproduceTable3(damq.QuickScale, freshSeed(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Latency regenerates Table 4: blocking network latencies
// and saturation throughput for all four buffer kinds at 4 slots.
func BenchmarkTable4Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := damq.ReproduceTable4(damq.QuickScale, freshSeed(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Slots regenerates Table 5: FIFO vs DAMQ at 3, 4, and 8
// slots per buffer.
func BenchmarkTable5Slots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := damq.ReproduceTable5(damq.QuickScale, freshSeed(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6HotSpot regenerates Table 6: 5% hot-spot traffic
// tree-saturating every buffer kind at the same throughput.
func BenchmarkTable6HotSpot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := damq.ReproduceTable6(damq.QuickScale, freshSeed(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3Curve regenerates Figure 3: the latency-vs-throughput
// sweep for FIFO and DAMQ.
func BenchmarkFigure3Curve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := damq.ReproduceFigure3([]damq.BufferKind{damq.FIFO, damq.DAMQ}, 4, damq.QuickScale, freshSeed(i))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVarLenExtension regenerates the variable-length extension the
// paper's conclusion motivates.
func BenchmarkVarLenExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := damq.ReproduceVarLen(damq.QuickScale, freshSeed(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationConnectivity regenerates the DAFC connectivity
// ablation (A1).
func BenchmarkAblationConnectivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := damq.AblateConnectivity(damq.QuickScale, freshSeed(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationArbitration regenerates the smart-vs-dumb arbitration
// ablation (A2).
func BenchmarkAblationArbitration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := damq.AblateArbitration(damq.QuickScale, freshSeed(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBurstiness regenerates the message-traffic ablation
// (A3).
func BenchmarkAblationBurstiness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := damq.AblateBurstiness(damq.QuickScale, freshSeed(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChipNetworkPacket measures the byte-level chip network: one
// 8-byte packet through a 16×16 Omega of ComCoBB chips.
func BenchmarkChipNetworkPacket(b *testing.B) {
	net, err := damq.NewChipOmegaNetwork(damq.ChipOmegaConfig{})
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Send(i%16, (i*7)%16, payload, 0); err != nil {
			b.Fatal(err)
		}
		net.Run(40)
	}
}

// benchNetworkCycle measures the simulator's raw speed: one network cycle
// of an inputs×inputs blocking DAMQ Omega network at the given load.
func benchNetworkCycle(b *testing.B, inputs int, load float64, opts ...damq.Option) {
	benchCycles(b, damq.NetworkConfig{
		Inputs:     inputs,
		BufferKind: damq.DAMQ,
		Capacity:   4,
		Policy:     damq.SmartArbitration,
		Protocol:   damq.Blocking,
		Traffic:    damq.TrafficSpec{Kind: damq.UniformTraffic, Load: load},
		Seed:       1,
	}, opts...)
}

// benchCycles times one Step of the network cfg describes and returns
// the Sim's collected Result.
func benchCycles(b *testing.B, cfg damq.NetworkConfig, opts ...damq.Option) *damq.NetworkResult {
	sim, err := damq.NewNetwork(cfg, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer sim.Close()
	// Reach steady state before the timer starts: the early cycles grow
	// the packet pool, source queues, and transfer buffers to their
	// working size, after which stepping is allocation-free. The
	// high-water marks creep for a few thousand cycles (extreme values of
	// the backlog random walk), so the warmup is sized generously; without
	// it the large networks (few timed iterations) smear that one-time
	// growth into their allocs/op.
	for i := 0; i < 3000; i++ {
		sim.Step(false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step(true)
	}
	b.StopTimer()
	return sim.Collect()
}

// BenchmarkNetworkCycle is the dense case: 0.5 load keeps most switches
// occupied, so it measures the arbitration and delivery machinery itself.
func BenchmarkNetworkCycle(b *testing.B) { benchNetworkCycle(b, 64, 0.5) }

// BenchmarkNetworkCycleLowLoad is the sparse case: at 0.2 load most
// switches are empty most cycles, so it measures what an idle switch
// still costs — one occupancy-counter test per cycle, plus the arbiter
// fast-forward when a packet next arrives.
func BenchmarkNetworkCycleLowLoad(b *testing.B) { benchNetworkCycle(b, 64, 0.2) }

// BenchmarkNetworkCycleObserved is the dense case with an observer
// attached (time series off): it tracks the overhead of the per-cycle
// probes — counter bumps, per-queue depth sampling, stage gauges — which
// must stay allocation-free like the unobserved path.
func BenchmarkNetworkCycleObserved(b *testing.B) {
	benchNetworkCycle(b, 64, 0.5, damq.WithObserver(damq.NewObserver()))
}

// BenchmarkNetworkCycleDiscarding is the paper's Table 3 setup: a
// 64-input DAMQ network on the discarding protocol at load 1.0, where
// buffers refuse packets every cycle. It is the cycle benchmark of the
// drop paths and of a route phase with no room to latch.
func BenchmarkNetworkCycleDiscarding(b *testing.B) {
	res := benchCycles(b, damq.NetworkConfig{
		Inputs:     64,
		BufferKind: damq.DAMQ,
		Capacity:   4,
		Policy:     damq.SmartArbitration,
		Protocol:   damq.Discarding,
		Traffic:    damq.TrafficSpec{Kind: damq.UniformTraffic, Load: 1.0},
		Seed:       1,
	})
	if res.DiscardedAtEntry+res.DiscardedInNet == 0 {
		b.Fatal("no packet was refused")
	}
}

// BenchmarkNetworkCycle1024 is the headline scale: a 1024×1024 Omega
// network (5 stages × 256 switches of 4×4), stepped serially.
func BenchmarkNetworkCycle1024(b *testing.B) { benchNetworkCycle(b, 1024, 0.5) }

// BenchmarkNetworkCycle1024Sharded steps the same 1024×1024 network with
// 8 intra-run workers. Its wall-clock depends on the machine's core
// count, so the benchmark gate tracks only its allocation figures; the
// speedup table lives in EXPERIMENTS.md.
func BenchmarkNetworkCycle1024Sharded(b *testing.B) {
	benchNetworkCycle(b, 1024, 0.5, damq.WithWorkers(8))
}

// BenchmarkNetworkCycle1024Sharded2 steps it with 2 workers, the gang
// size that fits a two-core machine: against BenchmarkNetworkCycle1024 it
// is the measured intra-run speedup (EXPERIMENTS.md), and like the
// 8-worker benchmark its gate is allocation-only.
func BenchmarkNetworkCycle1024Sharded2(b *testing.B) {
	benchNetworkCycle(b, 1024, 0.5, damq.WithWorkers(2))
}

// BenchmarkNetworkCycle1024ShardedObserved steps the 2-worker 1024×1024
// network with an observer attached: the shards count into their own
// partial instruments and the coordinator folds them at every cycle's
// end, so the observed run stays on the gang and must stay as
// allocation-free as the unobserved one. Its gate is allocation-only,
// like the other sharded benchmarks.
func BenchmarkNetworkCycle1024ShardedObserved(b *testing.B) {
	benchNetworkCycle(b, 1024, 0.5, damq.WithWorkers(2), damq.WithObserver(damq.NewObserver()))
}
