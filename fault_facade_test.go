package damq_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"damq"
)

// TestWithFaultsNetwork: the option arms link faults on a network run and
// the losses surface as FaultedInNet; a disabled config is equivalent to
// no option at all.
func TestWithFaultsNetwork(t *testing.T) {
	cfg := optionTestConfig()
	cfg.Protocol = damq.Discarding
	base, err := damq.RunNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}

	fc := damq.FaultConfig{Seed: 9, LinkTransientRate: 0.01}
	o := damq.NewObserver()
	faulted, err := damq.RunNetwork(cfg, damq.WithFaults(fc), damq.WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	if faulted.FaultedInNet == 0 {
		t.Fatal("no faulted discards at link rate 0.01")
	}
	if drops, ok := o.Snapshot().Counter("fault.net.link_drops"); !ok || drops == 0 {
		t.Fatalf("fault.net.link_drops = %d, %v", drops, ok)
	}

	// Replaying the same fault seed reproduces the run exactly.
	again, err := damq.RunNetwork(cfg, damq.WithFaults(fc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(faulted, again) {
		t.Fatal("same fault seed did not replay identically")
	}

	// All-rates-zero WithFaults is bit-identical to no option.
	off, err := damq.RunNetwork(cfg, damq.WithFaults(damq.FaultConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, off) {
		t.Fatal("disabled WithFaults perturbed the run")
	}

	// Invalid rates surface the sentinel through the constructor.
	if _, err := damq.RunNetwork(cfg, damq.WithFaults(damq.FaultConfig{LinkDeadRate: -1})); !errors.Is(err, damq.ErrBadFaultRate) {
		t.Fatalf("bad rate error = %v, want ErrBadFaultRate", err)
	}
}

// TestWithFaultsChip: the option arms wire corruption + parity + NACK on
// a chip, visible through the fault.* metrics and the retransmit ledger.
func TestWithFaultsChip(t *testing.T) {
	o := damq.NewObserver()
	chip := damq.NewChip(damq.ChipConfig{},
		damq.WithObserver(o),
		damq.WithFaults(damq.FaultConfig{Seed: 4, WireCorruptRate: 0.05, RetryLimit: 4}))
	chip.In(0).Router().Set(0x01, damq.Route{Out: 1, NewHeader: 0x02})
	drv := damq.NewChipDriver(chip.InLink(0),
		damq.WithObserver(o),
		damq.WithFaults(damq.FaultConfig{RetryLimit: 4, RetryBackoff: 2}))
	for i := 0; i < 30; i++ {
		drv.Queue(0x01, []byte{byte(i), 0x5A}, 0)
	}
	for i := 0; i < 6000 && drv.Pending() > 0; i++ {
		drv.Tick()
		chip.Tick()
	}
	snap := o.Snapshot()
	corrupted, _ := snap.Counter("fault.wire.corrupted")
	if corrupted == 0 {
		t.Fatal("no corruption counted at rate 0.05")
	}
	nacks, _ := snap.Counter("fault.wire.nacks")
	retries, _ := snap.Counter("fault.driver.retries")
	gaveup, _ := snap.Counter("fault.driver.gaveup")
	if nacks != retries+gaveup {
		t.Fatalf("NACK ledger unbalanced in metrics: %d != %d + %d", nacks, retries, gaveup)
	}
}

// TestWithFaultsBufferStuckAtBirth: slots whose failure draw lands on
// cycle 0 are quarantined before the buffer is handed out.
func TestWithFaultsBufferStuckAtBirth(t *testing.T) {
	buf, err := damq.NewBuffer(damq.DAMQ, 4, 64,
		damq.WithFaults(damq.FaultConfig{Seed: 11, SlotStuckRate: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	q, ok := buf.(interface {
		Quarantined() int
		CheckInvariants() error
	})
	if !ok {
		t.Fatal("DAMQ buffer lost its quarantine surface through the facade")
	}
	if q.Quarantined() == 0 {
		t.Fatal("no slot stuck at birth at rate 0.5 over 64 slots")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The static organizations are slot pools too, but slot faults skip
	// them.
	fifo, err := damq.NewBuffer(damq.FIFO, 4, 64,
		damq.WithFaults(damq.FaultConfig{SlotStuckRate: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if n := fifo.(*damq.DAMQBuffer).Quarantined(); n != 0 {
		t.Fatalf("FIFO quarantined %d slots at birth; slot faults skip static kinds", n)
	}
	if _, err := damq.NewBuffer(damq.DAMQ, 4, 64,
		damq.WithFaults(damq.FaultConfig{SlotStuckRate: 2})); !errors.Is(err, damq.ErrBadFaultRate) {
		t.Fatalf("bad rate error = %v, want ErrBadFaultRate", err)
	}
}

// TestRunNetworkCtx: an uncancelled context reproduces Run exactly; a
// pre-cancelled one returns a partial result that says so.
func TestRunNetworkCtx(t *testing.T) {
	cfg := optionTestConfig()
	base, err := damq.RunNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := damq.RunNetworkCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, full) {
		t.Fatal("RunNetworkCtx with live context diverged from Run")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial, err := damq.RunNetworkCtx(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if partial == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if partial.Config.MeasureCycles >= cfg.MeasureCycles {
		t.Fatalf("cancelled run claims %d measured cycles (configured %d)",
			partial.Config.MeasureCycles, cfg.MeasureCycles)
	}
}

// TestFaultParsersFacade exercises the re-exported spec/kind parsers and
// their sentinels.
func TestFaultParsersFacade(t *testing.T) {
	fc, err := damq.ParseFaultSpec("SlotStuck=1e-4, linktransient=0.001, seed=7, retries=3, backoff=4")
	if err != nil {
		t.Fatal(err)
	}
	want := damq.FaultConfig{
		Seed: 7, SlotStuckRate: 1e-4, LinkTransientRate: 0.001,
		RetryLimit: 3, RetryBackoff: 4,
	}
	if fc != want {
		t.Fatalf("parsed %+v, want %+v", fc, want)
	}
	if !fc.Enabled() {
		t.Fatal("parsed config not enabled")
	}
	if _, err := damq.ParseFaultSpec("wirecorrupt=3"); !errors.Is(err, damq.ErrBadFaultRate) {
		t.Fatalf("rate 3 error = %v, want ErrBadFaultRate", err)
	}
	if _, err := damq.ParseFaultSpec("retries=-1"); !errors.Is(err, damq.ErrBadRetryLimit) {
		t.Fatalf("retries -1 error = %v, want ErrBadRetryLimit", err)
	}
	if _, err := damq.ParseFaultSpec("gamma=1"); !errors.Is(err, damq.ErrBadKind) {
		t.Fatalf("unknown kind error = %v, want ErrBadKind", err)
	}

	if k, err := damq.ParseFaultKind("LINKDEAD"); err != nil || k != damq.FaultLinkDead {
		t.Fatalf("ParseFaultKind = %v, %v", k, err)
	}
	if _, err := damq.ParseFaultKind("meteor"); !errors.Is(err, damq.ErrBadKind) {
		t.Fatalf("unknown kind = %v, want ErrBadKind", err)
	} else if !strings.Contains(err.Error(), "slotstuck") {
		t.Fatalf("error does not list valid names: %v", err)
	}
	if n := len(damq.FaultKinds()); n != 4 {
		t.Fatalf("FaultKinds() = %d kinds", n)
	}
}
