package damq_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"damq"
)

// tinyScale keeps facade-level experiment tests fast.
var tinyScale = damq.ExperimentScale{Warmup: 200, Measure: 1200, Seed: 2}

func TestReproduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	if _, err := damq.ReproduceTable3(tinyScale); err != nil {
		t.Errorf("table3: %v", err)
	}
	rows4, err := damq.ReproduceTable4(tinyScale)
	if err != nil || len(rows4) != 4 {
		t.Errorf("table4: %v (%d rows)", err, len(rows4))
	}
	rows5, err := damq.ReproduceTable5(tinyScale)
	if err != nil || len(rows5) != 6 {
		t.Errorf("table5: %v (%d rows)", err, len(rows5))
	}
	rows6, err := damq.ReproduceTable6(tinyScale)
	if err != nil || len(rows6) != 4 {
		t.Errorf("table6: %v (%d rows)", err, len(rows6))
	}
	if _, err := damq.ReproduceVarLen(tinyScale); err != nil {
		t.Errorf("varlen: %v", err)
	}
	if _, err := damq.ReproduceAsync(tinyScale); err != nil {
		t.Errorf("async: %v", err)
	}
}

func TestReproduceFigure3AndSVG(t *testing.T) {
	series, err := damq.ReproduceFigure3([]damq.BufferKind{damq.DAMQ}, 4, tinyScale)
	if err != nil || len(series) != 1 {
		t.Fatalf("figure3: %v (%d series)", err, len(series))
	}
	txt := damq.RenderFigure3(series)
	if !strings.Contains(txt, "DAMQ/4") {
		t.Error("text render missing series")
	}
	svg := damq.RenderFigure3SVG(series, "test figure")
	if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "test figure") {
		t.Error("SVG render malformed")
	}
}

func TestAblationFacades(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	if rows, err := damq.AblateConnectivity(tinyScale); err != nil || len(rows) != 4 {
		t.Errorf("connectivity: %v (%d rows)", err, len(rows))
	}
	if rows, err := damq.AblateArbitration(tinyScale); err != nil || len(rows) != 4 {
		t.Errorf("arbitration: %v (%d rows)", err, len(rows))
	}
	if rows, err := damq.AblateBurstiness(tinyScale); err != nil || len(rows) != 4 {
		t.Errorf("burstiness: %v (%d rows)", err, len(rows))
	}
}

func TestRunAsyncNetworkFacade(t *testing.T) {
	res, err := damq.RunAsyncNetwork(damq.AsyncNetworkConfig{
		BufferKind: damq.DAMQ,
		Load:       0.3,
		Warmup:     2000,
		Measure:    10000,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkUtilization < 0.25 || res.LinkUtilization > 0.35 {
		t.Fatalf("utilization = %v", res.LinkUtilization)
	}
	if _, err := damq.RunAsyncNetwork(damq.AsyncNetworkConfig{Load: 2}); err == nil {
		t.Fatal("accepted invalid load")
	}
}

func TestChipOmegaFacade(t *testing.T) {
	net, err := damq.NewChipOmegaNetwork(damq.ChipOmegaConfig{Inputs: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Send(1, 14, []byte{9, 9, 9}, 0); err != nil {
		t.Fatal(err)
	}
	net.Run(60)
	if got := net.Delivered(14); len(got) != 1 || len(got[0].Data) != 3 {
		t.Fatalf("delivery wrong: %+v", got)
	}
	if _, err := damq.NewChipOmegaNetwork(damq.ChipOmegaConfig{Inputs: 17}); err == nil {
		t.Fatal("accepted bad width")
	}
}

func TestReproduceTable2Facade(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 128 chains")
	}
	res, err := damq.ReproduceTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 16 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

// optionTestConfig is a small deterministic network config shared by the
// option-combination tests.
func optionTestConfig() damq.NetworkConfig {
	return damq.NetworkConfig{
		Inputs:        16,
		BufferKind:    damq.DAMQ,
		Capacity:      4,
		Policy:        damq.SmartArbitration,
		Protocol:      damq.Blocking,
		Traffic:       damq.TrafficSpec{Kind: damq.UniformTraffic, Load: 0.6},
		WarmupCycles:  100,
		MeasureCycles: 400,
		Seed:          3,
	}
}

func TestFacadeSentinelErrors(t *testing.T) {
	if k, err := damq.ParseBufferKind("DaMq"); err != nil || k != damq.DAMQ {
		t.Errorf("case-insensitive parse failed: %v %v", k, err)
	}
	if _, err := damq.ParseBufferKind("ring"); !errors.Is(err, damq.ErrBadKind) {
		t.Errorf("bad kind error = %v, want ErrBadKind", err)
	} else if !strings.Contains(err.Error(), "damq") || !strings.Contains(err.Error(), "fifo") {
		t.Errorf("bad kind error does not list valid names: %v", err)
	}
	if p, err := damq.ParseProtocol("Blocking"); err != nil || p != damq.Blocking {
		t.Errorf("protocol parse: %v %v", p, err)
	}
	if _, err := damq.ParseProtocol("wormhole"); !errors.Is(err, damq.ErrBadProtocol) {
		t.Errorf("bad protocol error = %v, want ErrBadProtocol", err)
	}
	if p, err := damq.ParseArbitrationPolicy("SMART"); err != nil || p != damq.SmartArbitration {
		t.Errorf("policy parse: %v %v", p, err)
	}
	if _, err := damq.ParseArbitrationPolicy("psychic"); !errors.Is(err, damq.ErrBadPolicy) {
		t.Errorf("bad policy error = %v, want ErrBadPolicy", err)
	}

	badSwitch := damq.SwitchConfig{
		Ports: 4, BufferKind: damq.SAMQ, Capacity: 7, Policy: damq.SmartArbitration,
	}
	if err := badSwitch.Validate(); !errors.Is(err, damq.ErrBadCapacity) {
		t.Errorf("switch validate = %v, want ErrBadCapacity", err)
	}
	if _, err := damq.NewSwitch(badSwitch); !errors.Is(err, damq.ErrBadCapacity) {
		t.Errorf("NewSwitch = %v, want ErrBadCapacity", err)
	}
	if err := (damq.SwitchConfig{BufferKind: damq.DAMQ, Capacity: 4}).Validate(); !errors.Is(err, damq.ErrBadPorts) {
		t.Errorf("zero-port switch = %v, want ErrBadPorts", err)
	}
	if err := (damq.SwitchConfig{Ports: 65, BufferKind: damq.DAMQ, Capacity: 65}).Validate(); !errors.Is(err, damq.ErrBadPorts) {
		t.Errorf("65-port switch = %v, want ErrBadPorts (the arbiter's masks are 64 bits)", err)
	}

	if err := (damq.NetworkConfig{}).Validate(); err != nil {
		t.Errorf("zero network config must validate (defaults fill it): %v", err)
	}
	cfg := optionTestConfig()
	cfg.Traffic.Load = 2
	if _, err := damq.RunNetwork(cfg); !errors.Is(err, damq.ErrBadLoad) {
		t.Errorf("overload = %v, want ErrBadLoad", err)
	}
	if _, err := damq.NewNetwork(damq.NetworkConfig{Radix: 3}); !errors.Is(err, damq.ErrBadRadix) {
		t.Errorf("radix 3 = %v, want ErrBadRadix", err)
	}
	if err := (damq.NetworkConfig{Radix: 128, Inputs: 128}).Validate(); !errors.Is(err, damq.ErrBadRadix) {
		t.Errorf("radix 128 = %v, want ErrBadRadix (the arbiter's masks are 64 bits)", err)
	}
	cfg = optionTestConfig()
	cfg.Traffic = damq.TrafficSpec{Kind: damq.HotSpotTraffic, Load: 0.5, HotFraction: 2}
	if _, err := damq.NewNetwork(cfg); !errors.Is(err, damq.ErrBadTraffic) {
		t.Errorf("hot fraction 2 = %v, want ErrBadTraffic", err)
	}
}

func TestFacadeNetworkOptions(t *testing.T) {
	base, err := damq.RunNetwork(optionTestConfig())
	if err != nil {
		t.Fatal(err)
	}

	// WithSeed overrides Config.Seed: seeding via option must reproduce
	// the config-seeded run exactly.
	reseeded := optionTestConfig()
	reseeded.Seed = 999
	viaOpt, err := damq.RunNetwork(reseeded, damq.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, viaOpt) {
		t.Error("WithSeed(3) does not reproduce the Seed:3 run")
	}

	// WithObserver collects metrics without perturbing results.
	o := damq.NewObserver()
	o.SetInterval(50)
	observed, err := damq.RunNetwork(optionTestConfig(), damq.WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, observed) {
		t.Error("observed run diverged from unobserved run")
	}
	raw, err := o.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := damq.ValidateMetricsJSON(raw); err != nil {
		t.Errorf("snapshot invalid: %v", err)
	}
	snap, err := damq.DecodeMetrics(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := snap.Counter("net.packets.delivered"); v != base.Delivered {
		t.Errorf("delivered counter = %d, want %d", v, base.Delivered)
	}
	if len(snap.Series) == 0 {
		t.Error("interval series empty despite SetInterval")
	}

	// Options combine: observer + seed override together.
	o2 := damq.NewObserver()
	both, err := damq.RunNetwork(reseeded, damq.WithObserver(o2), damq.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, both) {
		t.Error("combined WithObserver+WithSeed diverged")
	}
	if v, _ := o2.Snapshot().Counter("net.packets.delivered"); v != base.Delivered {
		t.Error("combined-option observer missed deliveries")
	}

	// A nil observer option is a no-op, not a crash.
	if _, err := damq.RunNetwork(optionTestConfig(), damq.WithObserver(nil)); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeObservedBufferAndChip(t *testing.T) {
	o := damq.NewObserver()
	buf, err := damq.NewBuffer(damq.DAMQ, 4, 2, damq.WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p := &damq.Packet{OutPort: i % 2, Slots: 1}
		if err := buf.Accept(p); (err != nil) != (i == 2) {
			t.Fatalf("accept %d: %v", i, err)
		}
	}
	buf.Pop(0)
	snap := o.Snapshot()
	for name, want := range map[string]int64{
		"buffer.accepted": 2,
		"buffer.rejected": 1,
		"buffer.popped":   1,
	} {
		if got, _ := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	co := damq.NewObserver()
	chip := damq.NewChip(damq.ChipConfig{}, damq.WithObserver(co))
	damq.NewChipNetwork(chip).Run(7)
	if v, _ := co.Snapshot().Counter("chip.cycles"); v != 7 {
		t.Errorf("chip.cycles = %d, want 7", v)
	}
}

func TestFacadeExperimentOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	// WithScale replaces the base scale; WithSeed then overrides its seed,
	// so both spellings of "tinyScale at seed 2" agree.
	direct, err := damq.ReproduceFigure3([]damq.BufferKind{damq.DAMQ}, 4, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	bumped := tinyScale
	bumped.Seed = 77
	viaOpts, err := damq.ReproduceFigure3([]damq.BufferKind{damq.DAMQ}, 4, damq.QuickScale,
		damq.WithScale(bumped), damq.WithSeed(tinyScale.Seed), damq.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, viaOpts) {
		t.Error("option-built scale does not reproduce the direct scale")
	}
	if _, err := damq.ReproduceTable2(damq.WithWorkers(2)); err != nil {
		t.Errorf("table2 with workers: %v", err)
	}
}

func TestBufferKindStrings(t *testing.T) {
	kinds := damq.BufferKinds()
	if len(kinds) != 4 {
		t.Fatalf("kinds = %v", kinds)
	}
	if damq.DAFC.String() != "DAFC" {
		t.Fatal("DAFC name wrong")
	}
	if damq.Blocking.String() != "blocking" || damq.Discarding.String() != "discarding" {
		t.Fatal("protocol names wrong")
	}
	if damq.SmartArbitration.String() != "smart" || damq.DumbArbitration.String() != "dumb" {
		t.Fatal("policy names wrong")
	}
}
