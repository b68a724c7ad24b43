package netsim

import (
	"testing"

	"damq/internal/buffer"
	"damq/internal/sw"
)

func TestLatencyPercentiles(t *testing.T) {
	sim, err := New(baseCfg(buffer.DAMQ, sw.Blocking, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	p50 := res.LatencyP(0.50)
	p99 := res.LatencyP(0.99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("p50 = %v, p99 = %v", p50, p99)
	}
	// The median approximates the mean's neighborhood at moderate load
	// (the distribution is right-skewed, so median <= mean + bucket).
	if p50 > res.LatencyFromBorn.Mean()+12 {
		t.Fatalf("median %v implausibly above mean %v", p50, res.LatencyFromBorn.Mean())
	}
}

func TestLatencyPEmpty(t *testing.T) {
	var r Result
	if r.LatencyP(0.5) != 0 {
		t.Fatal("empty result percentile should be 0")
	}
}

// TestTreeSaturationGradient reproduces the mechanism behind Table 6.
// The saturation tree is rooted at the one last-stage switch feeding the
// hot module: 1 of 16 switches in stage 2, 4 of 16 in stage 1, all 16 in
// stage 0. Averaged per switch, occupancy therefore *increases* toward
// the sources — the congestion "spreads from the hot spot as its root ...
// all the way up to the senders" (Pfister & Norton via the paper).
func TestTreeSaturationGradient(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation run")
	}
	cfg := baseCfg(buffer.DAMQ, sw.Blocking, 1.0)
	cfg.Traffic = TrafficSpec{Kind: HotSpot, Load: 1.0, HotFraction: 0.05}
	cfg.WarmupCycles = 3000
	cfg.MeasureCycles = 5000
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if len(res.StageOccupancy) != 3 {
		t.Fatalf("stage occupancy rows = %d", len(res.StageOccupancy))
	}
	// Compare against uniform traffic at moderate load: the hot-spot
	// saturated network must be much fuller at every stage.
	uniCfg := baseCfg(buffer.DAMQ, sw.Blocking, 0.24)
	uniSim, err := New(uniCfg)
	if err != nil {
		t.Fatal(err)
	}
	uniRes := uniSim.Run()
	s0 := res.StageOccupancy[0].Mean()
	s1 := res.StageOccupancy[1].Mean()
	s2 := res.StageOccupancy[2].Mean()
	// Monotone back-up toward the sources.
	if !(s0 > s1 && s1 > s2) {
		t.Errorf("no tree-saturation gradient: stage occupancies %.2f, %.2f, %.2f", s0, s1, s2)
	}
	// And the first stage is far above its uniform-traffic level, while
	// the last stage (15 of 16 switches outside the tree) stays moderate.
	if u0 := uniRes.StageOccupancy[0].Mean(); s0 < 3*u0 {
		t.Errorf("stage 0 not saturated: %v vs uniform %v", s0, u0)
	}
}
