package markov2x2

import (
	"math"
	"testing"

	"damq/internal/buffer"
	"damq/internal/markov"
	"damq/internal/rng"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(buffer.SAMQ, 3, 0.5); err == nil {
		t.Error("SAMQ accepted odd slots")
	}
	if _, err := New(buffer.FIFO, 0, 0.5); err == nil {
		t.Error("accepted zero slots")
	}
	if _, err := New(buffer.FIFO, 13, 0.5); err == nil {
		t.Error("accepted oversized slots")
	}
	if _, err := New(buffer.FIFO, 4, 1.5); err == nil {
		t.Error("accepted load > 1")
	}
	if _, err := New(buffer.FIFO, 4, -0.1); err == nil {
		t.Error("accepted negative load")
	}
	if _, err := New(buffer.Kind(9), 4, 0.5); err == nil {
		t.Error("accepted unknown kind")
	}
	if _, err := New(buffer.DAMQ, 3, 0.5); err != nil {
		t.Errorf("DAMQ rejected odd slots: %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	// FIFO round trip across queue contents.
	m, _ := New(buffer.FIFO, 4, 0.5)
	for qlen := 0; qlen <= 4; qlen++ {
		for bits := uint16(0); bits < 1<<qlen; bits++ {
			ps := [2]port{{qlen: qlen, qbits: bits}, {}}
			got := m.decode(m.encode(ps))
			if got != ps {
				t.Fatalf("FIFO round trip: %+v -> %+v", ps, got)
			}
		}
	}
	// Count round trip.
	m, _ = New(buffer.DAMQ, 6, 0.5)
	for n0 := 0; n0 <= 6; n0++ {
		for n1 := 0; n0+n1 <= 6; n1++ {
			ps := [2]port{{n: [2]int{n0, n1}}, {n: [2]int{n1, n0}}}
			got := m.decode(m.encode(ps))
			if got != ps {
				t.Fatalf("count round trip: %+v -> %+v", ps, got)
			}
		}
	}
}

func TestStateSpaceSizes(t *testing.T) {
	// DAMQ with B slots: per-port states = (B+1)(B+2)/2; the joint
	// reachable set is bounded by the square but arbitration (which always
	// drains a non-empty switch) makes a few full-full combinations
	// unreachable.
	for _, B := range []int{2, 3, 4} {
		m, _ := New(buffer.DAMQ, B, 0.9)
		c, err := markov.Build(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		per := (B + 1) * (B + 2) / 2
		if c.NumStates() > per*per || c.NumStates() < per {
			t.Errorf("DAMQ B=%d: %d states, want in (%d, %d]", B, c.NumStates(), per, per*per)
		}
	}
	// FIFO with B slots: per-port states = 2^(B+1)-1.
	m, _ := New(buffer.FIFO, 3, 0.9)
	c, err := markov.Build(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	per := 1<<4 - 1
	if c.NumStates() != per*per {
		t.Errorf("FIFO B=3: %d states, want %d", c.NumStates(), per*per)
	}
	// SAMQ with B slots: per-port states are (B/2+1)^2 but the joint
	// reachable set is smaller (arbitration always drains a non-empty
	// switch, so some full-full combinations can never be entered).
	m, _ = New(buffer.SAMQ, 4, 0.9)
	c, err = markov.Build(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	per = 3 * 3
	if c.NumStates() > per*per || c.NumStates() < per {
		t.Errorf("SAMQ B=4: %d states, want in (%d, %d]", c.NumStates(), per, per*per)
	}
}

func TestDepartureActionsMaxMatching(t *testing.T) {
	m, _ := New(buffer.DAMQ, 4, 0.5)
	// Port 0 can serve both outputs, port 1 only output 0. Max matching
	// is 2: port0->out1, port1->out0 (forced).
	ps := [2]port{{n: [2]int{2, 1}}, {n: [2]int{3, 0}}}
	acts := m.departureActions(ps)
	if len(acts) != 1 || len(acts[0]) != 2 {
		t.Fatalf("actions = %v", acts)
	}
	seen := map[pair]bool{}
	for _, c := range acts[0] {
		seen[c] = true
	}
	if !seen[pair{0, 1}] || !seen[pair{1, 0}] {
		t.Fatalf("wrong matching: %v", acts[0])
	}
}

func TestDepartureActionsLongestQueue(t *testing.T) {
	m, _ := New(buffer.DAMQ, 4, 0.5)
	// Both ports only serve output 0; only one can win: the longer queue.
	ps := [2]port{{n: [2]int{1, 0}}, {n: [2]int{3, 0}}}
	acts := m.departureActions(ps)
	if len(acts) != 1 || len(acts[0]) != 1 || acts[0][0] != (pair{1, 0}) {
		t.Fatalf("actions = %v, want port 1 only", acts)
	}
	// Equal queues: fair coin between the two ports.
	ps = [2]port{{n: [2]int{2, 0}}, {n: [2]int{2, 0}}}
	acts = m.departureActions(ps)
	if len(acts) != 2 {
		t.Fatalf("tie should give 2 actions, got %v", acts)
	}
}

func TestDepartureActionsSAFCDouble(t *testing.T) {
	m, _ := New(buffer.SAFC, 4, 0.5)
	// Only port 0 holds packets, for both outputs: SAFC sends both in one
	// cycle; SAMQ (single read port) sends one.
	ps := [2]port{{n: [2]int{1, 1}}, {}}
	acts := m.departureActions(ps)
	if len(acts) != 1 || len(acts[0]) != 2 {
		t.Fatalf("SAFC actions = %v, want one double action", acts)
	}
	ms, _ := New(buffer.SAMQ, 4, 0.5)
	acts = ms.departureActions(ps)
	for _, a := range acts {
		if len(a) != 1 {
			t.Fatalf("SAMQ sent %d packets from one port", len(a))
		}
	}
	if len(acts) != 2 {
		t.Fatalf("SAMQ tie actions = %v", acts)
	}
}

func TestDepartureActionsEmpty(t *testing.T) {
	m, _ := New(buffer.FIFO, 2, 0.5)
	acts := m.departureActions([2]port{{}, {}})
	if len(acts) != 1 || len(acts[0]) != 0 {
		t.Fatalf("empty switch actions = %v", acts)
	}
}

func TestFIFOHeadOnlyServable(t *testing.T) {
	m, _ := New(buffer.FIFO, 4, 0.5)
	// Queue: head for output 1, then output 0.
	p := port{qlen: 2, qbits: 0b01}
	if m.servable(p, 0) {
		t.Fatal("FIFO served a non-head packet")
	}
	if !m.servable(p, 1) {
		t.Fatal("FIFO did not serve its head")
	}
	popped := m.pop(p, 1)
	if popped.qlen != 1 || popped.qbits != 0 {
		t.Fatalf("pop result: %+v", popped)
	}
	if !m.servable(popped, 0) {
		t.Fatal("FIFO head after pop wrong")
	}
}

func TestSolveBasicSanity(t *testing.T) {
	r, err := Solve(buffer.DAMQ, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.PDiscard <= 0 || r.PDiscard > 0.2 {
		t.Fatalf("DAMQ B=2 p=0.5 discard = %v", r.PDiscard)
	}
	if math.Abs(r.ArrivalRate-1.0) > 1e-9 { // 2 ports x 0.5
		t.Fatalf("arrival rate = %v", r.ArrivalRate)
	}
	// Flow conservation in steady state: departures/cycle must equal
	// accepted arrivals/cycle.
	accepted := r.ArrivalRate * (1 - r.PDiscard)
	if math.Abs(accepted-2*r.Throughput) > 1e-6 {
		t.Fatalf("flow not conserved: accepted %v, departures %v", accepted, 2*r.Throughput)
	}
}

func TestDiscardMonotoneInLoad(t *testing.T) {
	for _, kind := range buffer.Kinds() {
		prev := -1.0
		for _, load := range []float64{0.25, 0.5, 0.75, 0.9, 0.99} {
			r, err := Solve(kind, 4, load)
			if err != nil {
				t.Fatal(err)
			}
			if r.PDiscard < prev-1e-9 {
				t.Fatalf("%v: discard decreased with load: %v -> %v", kind, prev, r.PDiscard)
			}
			prev = r.PDiscard
		}
	}
}

func TestDiscardMonotoneInSlots(t *testing.T) {
	for _, kind := range []buffer.Kind{buffer.FIFO, buffer.DAMQ} {
		prev := 2.0
		for _, slots := range []int{2, 3, 4, 5, 6} {
			r, err := Solve(kind, slots, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			if r.PDiscard > prev+1e-9 {
				t.Fatalf("%v: discard increased with slots: %v -> %v", kind, prev, r.PDiscard)
			}
			prev = r.PDiscard
		}
	}
}

// TestTable2Ordering checks the paper's headline orderings at high load.
func TestTable2Ordering(t *testing.T) {
	load := 0.9
	get := func(kind buffer.Kind, slots int) float64 {
		r, err := Solve(kind, slots, load)
		if err != nil {
			t.Fatal(err)
		}
		return r.PDiscard
	}
	fifo := get(buffer.FIFO, 4)
	damq := get(buffer.DAMQ, 4)
	samq := get(buffer.SAMQ, 4)
	safc := get(buffer.SAFC, 4)
	if !(damq < safc && safc <= samq && samq < fifo) {
		t.Fatalf("ordering violated: DAMQ=%v SAFC=%v SAMQ=%v FIFO=%v", damq, safc, samq, fifo)
	}
	// DAMQ with 3 slots discards no more than FIFO with 6 (paper's claim).
	damq3 := get(buffer.DAMQ, 3)
	fifo6 := get(buffer.FIFO, 6)
	if damq3 > fifo6+1e-9 {
		t.Fatalf("DAMQ(3)=%v > FIFO(6)=%v", damq3, fifo6)
	}
}

// TestFIFOBeatsStaticAtLowLoadSmallBuffers reproduces the paper's
// observation that at 25%% load with 2 slots the FIFO outperforms the
// statically partitioned designs (pooled storage wins when contention is
// rare).
func TestFIFOBeatsStaticAtLowLoadSmallBuffers(t *testing.T) {
	fifo, err := Solve(buffer.FIFO, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	samq, err := Solve(buffer.SAMQ, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if fifo.PDiscard >= samq.PDiscard {
		t.Fatalf("FIFO %v !< SAMQ %v at low load", fifo.PDiscard, samq.PDiscard)
	}
}

// TestMarkovMatchesMonteCarlo is the repo's strongest correctness check:
// the exact chain and a long simulation of the same process must agree.
func TestMarkovMatchesMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("long cross-validation")
	}
	for _, kind := range buffer.Kinds() {
		slots := 4
		load := 0.85
		exact, err := Solve(kind, slots, load)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Simulate(kind, slots, load, 2_000_000, rng.New(123))
		if err != nil {
			t.Fatal(err)
		}
		// Symmetric relative error: both discard probabilities are far
		// from zero at this load.
		re := math.Abs(exact.PDiscard-sim.PDiscard()) / math.Max(exact.PDiscard, sim.PDiscard())
		if re > 0.05 {
			t.Errorf("%v: Markov %v vs MC %v (rel err %.3f)", kind, exact.PDiscard, sim.PDiscard(), re)
		}
	}
}

func TestSimulateDeterminism(t *testing.T) {
	a, _ := Simulate(buffer.DAMQ, 4, 0.8, 10000, rng.New(5))
	b, _ := Simulate(buffer.DAMQ, 4, 0.8, 10000, rng.New(5))
	if a != b {
		t.Fatal("simulation not deterministic for fixed seed")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(buffer.SAMQ, 3, 0.5, 10, rng.New(1)); err == nil {
		t.Fatal("Simulate accepted invalid config")
	}
}

func TestZeroLoadNoDiscards(t *testing.T) {
	for _, kind := range buffer.Kinds() {
		r, err := Solve(kind, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.PDiscard != 0 || r.Throughput != 0 {
			t.Errorf("%v: zero load gave discard=%v throughput=%v", kind, r.PDiscard, r.Throughput)
		}
	}
}

func BenchmarkSolveDAMQ4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Solve(buffer.DAMQ, 4, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveFIFO6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Solve(buffer.FIFO, 6, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScratchReused: Next and Simulate append into scratch kept on the
// Model, so once it has grown Next allocates nothing and Simulate's
// allocations do not grow with the cycle count.
func TestScratchReused(t *testing.T) {
	m, _ := New(buffer.DAMQ, 4, 0.7)
	key := m.encode([2]port{{n: [2]int{1, 2}}, {n: [2]int{2, 1}}})
	arcs := m.Next(key, nil)
	if a := testing.AllocsPerRun(100, func() { arcs = m.Next(key, arcs[:0]) }); a != 0 {
		t.Errorf("Next allocates %v objects per call, want 0", a)
	}
	run := func(cycles int64) float64 {
		return testing.AllocsPerRun(1, func() {
			if _, err := Simulate(buffer.DAMQ, 4, 0.8, cycles, rng.New(1)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := run(1_000), run(100_000); long > short+8 {
		t.Errorf("Simulate allocates %v objects over 1,000 cycles and %v over 100,000", short, long)
	}
}
