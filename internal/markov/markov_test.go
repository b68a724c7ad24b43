package markov

import (
	"math"
	"testing"
)

// twoState is the classic 2-state chain with known stationary distribution.
// P(0->1)=a, P(1->0)=b; pi = (b/(a+b), a/(a+b)).
type twoState struct{ a, b float64 }

func (m twoState) Initial() uint64 { return 0 }
func (m twoState) NumRewards() int { return 1 }
func (m twoState) Next(s uint64, dst []Arc) []Arc {
	switch s {
	case 0:
		return append(dst,
			Arc{To: 1, P: m.a, Rewards: []float64{1}}, // reward 1 on 0->1
			Arc{To: 0, P: 1 - m.a, Rewards: []float64{0}},
		)
	default:
		return append(dst,
			Arc{To: 0, P: m.b, Rewards: []float64{0}},
			Arc{To: 1, P: 1 - m.b, Rewards: []float64{0}},
		)
	}
}

func TestTwoStateSteady(t *testing.T) {
	m := twoState{a: 0.3, b: 0.1}
	c, err := Build(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumStates() != 2 {
		t.Fatalf("states = %d", c.NumStates())
	}
	pi, err := c.Steady()
	if err != nil {
		t.Fatal(err)
	}
	want0 := m.b / (m.a + m.b)
	if math.Abs(pi[0]-want0) > 1e-9 {
		t.Fatalf("pi[0] = %v, want %v", pi[0], want0)
	}
	// Reward rate: transitions 0->1 happen at rate pi0 * a.
	rates := c.RewardRates(pi)
	if math.Abs(rates[0]-want0*m.a) > 1e-9 {
		t.Fatalf("reward rate = %v, want %v", rates[0], want0*m.a)
	}
}

// ring is a deterministic k-cycle; stationary distribution is uniform.
type ring struct{ k uint64 }

func (m ring) Initial() uint64 { return 0 }
func (m ring) NumRewards() int { return 0 }
func (m ring) Next(s uint64, dst []Arc) []Arc {
	// A tiny self-loop keeps the chain aperiodic so power iteration
	// converges to the uniform distribution.
	return append(dst,
		Arc{To: (s + 1) % m.k, P: 0.9, Rewards: []float64{}},
		Arc{To: s, P: 0.1, Rewards: []float64{}},
	)
}

func TestRingUniform(t *testing.T) {
	c, err := Build(ring{k: 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.Steady()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pi {
		if math.Abs(p-1.0/7.0) > 1e-9 {
			t.Fatalf("pi[%d] = %v", i, p)
		}
	}
}

// birthDeath is an M/M/1/K-like discrete chain with arrival probability a
// and service probability d per step (at most one event per step).
type birthDeath struct {
	k    uint64
	a, d float64
}

func (m birthDeath) Initial() uint64 { return 0 }
func (m birthDeath) NumRewards() int { return 2 } // [arrivals, losses]
func (m birthDeath) Next(s uint64, dst []Arc) []Arc {
	stay := 1.0
	if s < m.k {
		dst = append(dst, Arc{To: s + 1, P: m.a * (1 - m.d), Rewards: []float64{1, 0}})
		stay -= m.a * (1 - m.d)
	} else {
		// Arrival lost at capacity (unless a departure frees space in the
		// same step, which this simple model does not allow).
		dst = append(dst, Arc{To: s, P: m.a * (1 - m.d), Rewards: []float64{1, 1}})
		stay -= m.a * (1 - m.d)
	}
	if s > 0 {
		dst = append(dst, Arc{To: s - 1, P: m.d * (1 - m.a), Rewards: []float64{0, 0}})
		stay -= m.d * (1 - m.a)
	}
	dst = append(dst, Arc{To: s, P: stay, Rewards: []float64{0, 0}})
	return dst
}

func TestBirthDeathLossMonotoneInLoad(t *testing.T) {
	// Higher arrival probability must not lower the loss fraction.
	prev := -1.0
	for _, a := range []float64{0.1, 0.3, 0.5, 0.7} {
		c, err := Build(birthDeath{k: 3, a: a, d: 0.4}, 0)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := c.Steady()
		if err != nil {
			t.Fatal(err)
		}
		r := c.RewardRates(pi)
		loss := r[1] / r[0]
		if loss < prev {
			t.Fatalf("loss fraction decreased with load: %v -> %v at a=%v", prev, loss, a)
		}
		prev = loss
	}
}

func TestBuildRejectsBadProbabilities(t *testing.T) {
	bad := modelFunc{
		next: func(s uint64, dst []Arc) []Arc {
			return append(dst, Arc{To: 0, P: 0.5, Rewards: []float64{}})
		},
	}
	if _, err := Build(bad, 0); err == nil {
		t.Fatal("accepted non-normalized model")
	}
}

func TestBuildRejectsNegativeProbability(t *testing.T) {
	bad := modelFunc{
		next: func(s uint64, dst []Arc) []Arc {
			return append(dst,
				Arc{To: 0, P: 1.5, Rewards: []float64{}},
				Arc{To: 1, P: -0.5, Rewards: []float64{}})
		},
	}
	if _, err := Build(bad, 0); err == nil {
		t.Fatal("accepted negative probability")
	}
}

func TestBuildRejectsBadRewardLength(t *testing.T) {
	bad := modelFunc{
		nr: 2,
		next: func(s uint64, dst []Arc) []Arc {
			return append(dst, Arc{To: 0, P: 1, Rewards: []float64{1}})
		},
	}
	if _, err := Build(bad, 0); err == nil {
		t.Fatal("accepted wrong reward vector length")
	}
}

func TestBuildMaxStates(t *testing.T) {
	counter := modelFunc{
		next: func(s uint64, dst []Arc) []Arc {
			return append(dst, Arc{To: s + 1, P: 1, Rewards: []float64{}})
		},
	}
	if _, err := Build(counter, 100); err == nil {
		t.Fatal("unbounded chain not rejected")
	}
}

func TestZeroProbabilityArcsDropped(t *testing.T) {
	m := modelFunc{
		next: func(s uint64, dst []Arc) []Arc {
			return append(dst,
				Arc{To: 0, P: 1, Rewards: []float64{}},
				Arc{To: 99, P: 0, Rewards: []float64{}})
		},
	}
	c, err := Build(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumStates() != 1 {
		t.Fatalf("zero-probability arc expanded the state space: %d states", c.NumStates())
	}
}

func TestDuplicateArcsMerged(t *testing.T) {
	m := modelFunc{
		next: func(s uint64, dst []Arc) []Arc {
			return append(dst,
				Arc{To: 0, P: 0.5, Rewards: []float64{}},
				Arc{To: 0, P: 0.5, Rewards: []float64{}})
		},
	}
	c, err := Build(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.Steady()
	if err != nil || math.Abs(pi[0]-1) > 1e-12 {
		t.Fatalf("merge failed: pi=%v err=%v", pi, err)
	}
}

// modelFunc adapts closures to Model for error-path tests.
type modelFunc struct {
	nr   int
	next func(s uint64, dst []Arc) []Arc
}

func (m modelFunc) Initial() uint64                { return 0 }
func (m modelFunc) NumRewards() int                { return m.nr }
func (m modelFunc) Next(s uint64, dst []Arc) []Arc { return m.next(s, dst) }
