package buffer

import (
	"errors"
	"testing"

	"damq/internal/cfgerr"
)

func sharedViews(t *testing.T, cfg Config, inputs int) []*Composed {
	t.Helper()
	views, err := NewSharedGroup(cfg, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != inputs {
		t.Fatalf("got %d views, want %d", len(views), inputs)
	}
	return views
}

// TestSharedGroupSpansPorts: one port can hold more than its nominal
// share because admission competes for the whole switch's storage.
func TestSharedGroupSpansPorts(t *testing.T) {
	views := sharedViews(t, Config{Kind: DAMQ, NumOutputs: 2, Capacity: 4}, 2)
	v0, v1 := views[0], views[1]
	// Fill six slots through port 0 alone — 150% of its nominal four.
	for i := uint64(1); i <= 6; i++ {
		if err := v0.Accept(mk(i, int(i)%2, 1)); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	if v0.Len() != 6 || v1.Len() != 0 {
		t.Fatalf("Len = %d/%d, want 6/0", v0.Len(), v1.Len())
	}
	if v0.Free() != 2 || v1.Free() != 2 {
		t.Fatalf("Free = %d/%d, want 2/2 (shared pool)", v0.Free(), v1.Free())
	}
	// Port 1 sees the shrunken pool: two more fit, a third does not.
	if err := v1.Accept(mk(7, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if v1.CanAccept(mk(8, 1, 1)) {
		t.Fatal("accepted into a full shared pool")
	}
	// Packets come back out of the right view: port 0's queues hold its
	// own packets only, regardless of where the slots physically live.
	if p := v0.Pop(1); p == nil || p.ID != 1 {
		t.Fatalf("v0.Pop(1) = %v, want pkt 1", p)
	}
	if p := v1.Pop(0); p == nil || p.ID != 7 {
		t.Fatalf("v1.Pop(0) = %v, want pkt 7", p)
	}
	for _, v := range views {
		if err := v.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedGroupQuarantineWindows: per-view slot numbering maps onto
// disjoint windows of the pool, so per-buffer fault schedules span ports
// without colliding, and a quarantine anywhere shrinks everyone's Free.
func TestSharedGroupQuarantineWindows(t *testing.T) {
	views := sharedViews(t, Config{Kind: DT, NumOutputs: 2, Capacity: 4}, 2)
	v0, v1 := views[0], views[1]
	if !v1.QuarantineSlot(0) {
		t.Fatal("QuarantineSlot(0) on view 1 = false")
	}
	if v0.Quarantined() != 0 || v1.Quarantined() != 1 {
		t.Fatalf("quarantined = %d/%d, want 0/1", v0.Quarantined(), v1.Quarantined())
	}
	if v0.Free() != 7 || v1.Free() != 7 {
		t.Fatalf("Free = %d/%d, want 7/7", v0.Free(), v1.Free())
	}
	// Same view-local slot on the other view is a different pool slot.
	if !v0.QuarantineSlot(0) {
		t.Fatal("QuarantineSlot(0) on view 0 = false after quarantining view 1's slot 0")
	}
	if v0.Quarantined() != 1 || v1.Quarantined() != 1 || v0.Free() != 6 {
		t.Fatalf("quarantined = %d/%d free %d, want 1/1 free 6", v0.Quarantined(), v1.Quarantined(), v0.Free())
	}
	// View-local bounds still apply.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("QuarantineSlot(4) did not panic on a 4-slot view")
			}
		}()
		v0.QuarantineSlot(4)
	}()
	if err := v0.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSharedGroupTickOnce: a per-buffer tick loop over all views — what
// sw.Switch.Tick does — advances the shared clock exactly once per cycle.
func TestSharedGroupTickOnce(t *testing.T) {
	views := sharedViews(t, Config{Kind: BSHARE, NumOutputs: 2, Capacity: 4}, 4)
	for cycle := 0; cycle < 3; cycle++ {
		for _, v := range views {
			v.Tick()
		}
	}
	if now := views[0].Pool().Now(); now != 3 {
		t.Fatalf("pool clock = %d after 3 tick sweeps, want 3", now)
	}
}

// TestSharedGroupResetClearsGroup: Reset on any view clears the whole
// group (slot-pool hardware cannot partially reset shared storage), and
// resetting every view — what sw.Switch.Reset does — squares the
// per-view counters.
func TestSharedGroupResetClearsGroup(t *testing.T) {
	views := sharedViews(t, Config{Kind: DAMQ, NumOutputs: 2, Capacity: 4}, 2)
	v0, v1 := views[0], views[1]
	if err := v0.Accept(mk(1, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := v1.Accept(mk(2, 1, 2)); err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		v.Reset()
	}
	if v0.Len() != 0 || v1.Len() != 0 || v0.Free() != 8 {
		t.Fatalf("after reset: len %d/%d free %d, want 0/0/8", v0.Len(), v1.Len(), v0.Free())
	}
}

// TestSharedGroupRejectsUnpooledKinds: the static 1988 designs partition
// storage per port by definition; sharing them is a config error.
func TestSharedGroupRejectsUnpooledKinds(t *testing.T) {
	for _, kind := range []Kind{FIFO, SAMQ, SAFC} {
		_, err := NewSharedGroup(Config{Kind: kind, NumOutputs: 2, Capacity: 4}, 2)
		if !errors.Is(err, cfgerr.ErrBadSharing) {
			t.Fatalf("%v: err = %v, want ErrBadSharing", kind, err)
		}
	}
	if _, err := NewSharedGroup(Config{Kind: DAMQ, NumOutputs: 2, Capacity: 4}, 0); !errors.Is(err, cfgerr.ErrBadPorts) {
		t.Fatalf("inputs=0: err = %v, want ErrBadPorts", err)
	}
}
