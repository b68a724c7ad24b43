package sw

import (
	"testing"

	"damq/internal/arbiter"
	"damq/internal/buffer"
	"damq/internal/packet"
	"damq/internal/rng"
)

func TestNewCentralValidation(t *testing.T) {
	if _, err := NewCentral(0, 4); err == nil {
		t.Error("accepted zero ports")
	}
	if _, err := NewCentral(4, 0); err == nil {
		t.Error("accepted zero capacity")
	}
}

func TestCentralOfferDepart(t *testing.T) {
	cs, err := NewCentral(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p := &packet.Packet{ID: uint64(i), OutPort: i % 2, Slots: 1}
		if !cs.Offer(p) {
			t.Fatalf("offer %d rejected with %d free", i, cs.Free())
		}
	}
	held := 0
	for _, q := range cs.queues {
		held += len(q)
	}
	if cs.Free() != 0 || held != 4 {
		t.Fatalf("free=%d held=%d", cs.Free(), held)
	}
	if cs.Offer(&packet.Packet{OutPort: 3, Slots: 1}) {
		t.Fatal("offer into full pool accepted")
	}
	// Two queues are non-empty: two departures this cycle.
	if n := cs.Depart(); n != 2 {
		t.Fatalf("departures = %d", n)
	}
	if cs.Free() != 2 {
		t.Fatalf("free after departures = %d", cs.Free())
	}
	if cs.Offer(&packet.Packet{OutPort: 9, Slots: 1}) {
		t.Fatal("accepted invalid output port")
	}
}

// TestCentralPoolHogging reproduces Fujimoto's observation from the
// paper's Section 2: with a shared central pool, the flooding inputs
// consume all storage and traffic from quiet inputs — addressed to idle
// outputs — is discarded; with the same total storage split into
// per-input DAMQ buffers, the quiet inputs are isolated and lose
// (almost) nothing.
func TestCentralPoolHogging(t *testing.T) {
	const (
		ports     = 4
		totalCap  = 16
		lightLoad = 0.3
		cycles    = 100_000
	)
	central, err := RunCentralHog(ports, totalCap, lightLoad, cycles, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	damq := MustNew(Config{
		Ports: ports, BufferKind: buffer.DAMQ,
		Capacity: totalCap / ports, Policy: arbiter.Smart,
	}).RunPartitionedHog(lightLoad, cycles, rng.New(17))

	// Light inputs (2 and 3) under the central pool must suffer heavy
	// loss; under partitioned DAMQ buffers they must be near-lossless.
	for _, in := range []int{2, 3} {
		c := central.DiscardFraction(in)
		d := damq.DiscardFraction(in)
		if c < 0.10 {
			t.Errorf("input %d: central pool discards only %.3f — hogging not reproduced", in, c)
		}
		if d > 0.01 {
			t.Errorf("input %d: partitioned DAMQ discards %.3f, want ~0", in, d)
		}
		if c < 10*d+0.05 {
			t.Errorf("input %d: central %.3f not clearly worse than partitioned %.3f", in, c, d)
		}
	}
	// Sanity: the flooding pair as a whole loses ~half its traffic in
	// both designs (output 0 is 2x oversubscribed). Within the pair the
	// central pool is grossly unfair (the first-offered input grabs every
	// freed slot), so only the combined rate is meaningful there.
	combined := func(r HogResult) float64 {
		return float64(r.Discarded[0]+r.Discarded[1]) / float64(r.Arrivals[0]+r.Arrivals[1])
	}
	if c := combined(central); c < 0.3 {
		t.Errorf("central flooding pair discards only %.3f", c)
	}
	if d := combined(damq); d < 0.3 {
		t.Errorf("damq flooding pair discards only %.3f", d)
	}
}

func TestHogResultEmpty(t *testing.T) {
	r := HogResult{Arrivals: []int64{0}, Discarded: []int64{0}}
	if r.DiscardFraction(0) != 0 {
		t.Fatal("empty discard fraction should be 0")
	}
}
