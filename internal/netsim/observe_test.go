package netsim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/obs"
	"damq/internal/sw"
)

func observeTestConfig(protocol sw.Protocol, load float64) Config {
	return Config{
		Inputs:        16,
		BufferKind:    buffer.DAMQ,
		Capacity:      4,
		Policy:        arbiter.Smart,
		Protocol:      protocol,
		Traffic:       TrafficSpec{Kind: Uniform, Load: load},
		WarmupCycles:  100,
		MeasureCycles: 600,
		Seed:          11,
	}
}

// TestObserverDoesNotChangeResults pins the bit-identical invariant: the
// probes consume no randomness and never alter control flow, so an
// observed run's Result must equal the unobserved run's exactly.
func TestObserverDoesNotChangeResults(t *testing.T) {
	for _, protocol := range []sw.Protocol{sw.Blocking, sw.Discarding} {
		t.Run(protocol.String(), func(t *testing.T) {
			cfg := observeTestConfig(protocol, 0.9)

			plain, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			base := plain.Run()

			observed, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o := obs.NewObserver()
			o.SetInterval(50)
			observed.SetObserver(o)
			got := observed.Run()

			if !reflect.DeepEqual(base, got) {
				t.Errorf("observed run diverged from unobserved run:\n%+v\nvs\n%+v", base, got)
			}
		})
	}
}

// TestObservedSnapshotShape runs an observed simulation and checks the
// exported snapshot against the ValidateSnapshot contract plus the
// cross-checks against the Result it came from.
func TestObservedSnapshotShape(t *testing.T) {
	cfg := observeTestConfig(sw.Discarding, 1.0)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.NewObserver()
	o.SetInterval(100)
	sim.SetObserver(o)
	res := sim.Run()

	snap := o.Snapshot()
	if err := ValidateSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	raw, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSnapshotJSON(raw); err != nil {
		t.Fatal(err)
	}

	// Counters mirror the Result's measurement-window tallies.
	for _, c := range []struct {
		name string
		want int64
	}{
		{MetricGenerated, res.Generated},
		{MetricInjected, res.Injected},
		{MetricDelivered, res.Delivered},
		{MetricDiscardedEntry, res.DiscardedAtEntry},
		{MetricDiscardedNet, res.DiscardedInNet},
	} {
		if got, _ := snap.Counter(c.name); got != c.want {
			t.Errorf("%s = %d, want %d (Result)", c.name, got, c.want)
		}
	}

	// The latency histogram sums to delivered packets (the acceptance
	// criterion): every measured delivery contributes one sample.
	lat, _ := snap.Histogram(MetricLatencyInjected)
	if lat.Total != res.Delivered {
		t.Errorf("latency samples %d != delivered %d", lat.Total, res.Delivered)
	}
	if res.Delivered > 0 && lat.Sum <= 0 {
		t.Error("latency histogram sum not positive")
	}

	// Saturated discarding traffic must exercise the cause counters.
	if v, _ := snap.Counter(MetricDiscardedEntry); v == 0 {
		t.Error("saturated discarding run recorded no entry discards")
	}
	if v, _ := snap.Counter(MetricGrants); v == 0 {
		t.Error("no grants counted")
	}
	if v, _ := snap.Counter(MetricConflicts); v == 0 {
		t.Error("no conflicts counted under saturation")
	}

	// Per-stage occupancy gauges exist for every stage; queue depth saw
	// every (buffer, queue) pair each measured cycle.
	for st := 0; st < 2; st++ {
		if _, ok := snap.Gauge(StageOccupancyMetric(st)); !ok {
			t.Errorf("missing %s", StageOccupancyMetric(st))
		}
	}
	depth, _ := snap.Histogram(MetricQueueDepth)
	// 16-wide radix-4 network: 2 stages x 4 switches x 4 inputs x 4
	// queues = 128 samples per measured cycle.
	if want := cfg.MeasureCycles * 128; depth.Total != want {
		t.Errorf("queue-depth samples = %d, want %d", depth.Total, want)
	}

	// The time series recorded cumulative, monotone records.
	if len(snap.Series) < 2 {
		t.Fatalf("series = %d records, want >= 2", len(snap.Series))
	}
	last := snap.Series[len(snap.Series)-1]
	if last.Delivered <= snap.Series[0].Delivered {
		t.Error("series not cumulative")
	}

	// Detaching restores the unobserved fast path.
	sim.SetObserver(nil)
	if sim.metrics != nil {
		t.Error("SetObserver(nil) left probes attached")
	}
}

// TestObservedStepSteadyStateAllocs extends the allocation diet to the
// observed hot path: with all instruments registered up front and the
// shards' partials and latency logs sized at attach, stepping an observed
// simulation allocates nothing beyond the unobserved amortized events,
// serially or on a 2-worker gang (the time series is disabled here;
// enabled, it amortizes one append per interval).
func TestObservedStepSteadyStateAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := observeTestConfig(sw.Blocking, 0.5)
			cfg.Workers = workers
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			sim.SetObserver(obs.NewObserver())
			for i := 0; i < 2000; i++ {
				sim.Step(true)
			}
			// Not testing.AllocsPerRun: it drops to GOMAXPROCS 1, where a
			// gang sized for two processors spins out its whole budget at
			// every barrier. The malloc count is process-wide either way.
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const runs = 500
			for i := 0; i < runs; i++ {
				sim.Step(true)
			}
			runtime.ReadMemStats(&after)
			avg := float64(after.Mallocs-before.Mallocs) / runs
			const limit = 0.05
			if avg > limit {
				t.Errorf("observed steady-state Step allocates %.3f allocs/op, want <= %v", avg, limit)
			}
		})
	}
}

// TestModernMetricsConditional pins the per-policy instrumentation
// contract: net.pool.slots_used and net.policy.refused exist exactly
// when the run uses a modern kind or a shared pool — 1988 snapshots
// keep their exact key set (the metrics golden depends on this) — and
// when present they carry real observations.
func TestModernMetricsConditional(t *testing.T) {
	snapshotFor := func(mut func(*Config)) *obs.Snapshot {
		cfg := observeTestConfig(sw.Discarding, 1.0)
		mut(&cfg)
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := obs.NewObserver()
		sim.SetObserver(o)
		sim.Run()
		return o.Snapshot()
	}

	legacy := snapshotFor(func(*Config) {})
	if _, ok := legacy.Histogram(MetricPoolSlotsUsed); ok {
		t.Errorf("1988 DAMQ snapshot grew %s", MetricPoolSlotsUsed)
	}
	if _, ok := legacy.Counter(MetricPolicyRefused); ok {
		t.Errorf("1988 DAMQ snapshot grew %s", MetricPolicyRefused)
	}

	modern := snapshotFor(func(cfg *Config) { cfg.BufferKind = buffer.DT })
	occ, ok := modern.Histogram(MetricPoolSlotsUsed)
	if !ok || occ.Total == 0 {
		t.Fatalf("DT run: %s missing or empty (%+v)", MetricPoolSlotsUsed, occ)
	}
	if refused, ok := modern.Counter(MetricPolicyRefused); !ok || refused == 0 {
		t.Errorf("saturated DT run: %s = %d, want > 0 (threshold must refuse with free slots)",
			MetricPolicyRefused, refused)
	}

	// Shared-pool occupancy is sampled per pool, not per view: one
	// observation per switch per sampled cycle, with values that can
	// exceed a single view's capacity.
	pooled := snapshotFor(func(cfg *Config) { cfg.SharedPool = true; cfg.BufferKind = buffer.DT })
	pocc, ok := pooled.Histogram(MetricPoolSlotsUsed)
	if !ok || pocc.Total == 0 {
		t.Fatalf("shared-pool run: %s missing or empty", MetricPoolSlotsUsed)
	}
	if occ.Total != 4*pocc.Total {
		t.Errorf("per-buffer samples = %d, pooled samples = %d; want 4x (4 views per pool)",
			occ.Total, pocc.Total)
	}
}

// TestReattachKeepsSeriesCadence: the interval series' sampling
// position belongs to the observer, so re-attaching the same observer
// to a running Sim keeps its records on their cadence instead of taking
// one at the re-attach.
func TestReattachKeepsSeriesCadence(t *testing.T) {
	sim, err := New(observeTestConfig(sw.Discarding, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	o := obs.NewObserver()
	o.SetInterval(10)
	sim.SetObserver(o)
	for i := 0; i < 45; i++ {
		if i == 25 {
			sim.SetObserver(o)
		}
		sim.Step(true)
	}
	var got []int64
	for _, rec := range o.Series() {
		got = append(got, rec.Cycle)
	}
	if want := []int64{0, 10, 20, 30, 40}; !reflect.DeepEqual(got, want) {
		t.Errorf("records at cycles %v, want %v", got, want)
	}
}
