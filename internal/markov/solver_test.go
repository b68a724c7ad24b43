package markov

import (
	"math"
	"testing"
)

func TestGaussSeidelMatchesPowerIteration(t *testing.T) {
	models := []Model{
		twoState{a: 0.3, b: 0.1},
		ring{k: 7},
		birthDeath{k: 5, a: 0.4, d: 0.3},
	}
	for mi, m := range models {
		c, err := Build(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		power, err := c.Steady()
		if err != nil {
			t.Fatal(err)
		}
		gs, err := c.SteadyGaussSeidel()
		if err != nil {
			t.Fatalf("model %d: %v", mi, err)
		}
		for i := range power {
			if math.Abs(power[i]-gs[i]) > 1e-8 {
				t.Fatalf("model %d state %d: power %v vs gauss-seidel %v", mi, i, power[i], gs[i])
			}
		}
	}
}

func TestGaussSeidelEmptyChain(t *testing.T) {
	c := &Chain{}
	if _, err := c.SteadyGaussSeidel(); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestMixingTimeTwoState(t *testing.T) {
	m := twoState{a: 0.5, b: 0.5}
	c, _ := Build(m, 0)
	pi, _ := c.Steady()
	// With a=b=0.5 the chain reaches the uniform distribution in one
	// step exactly.
	steps, err := c.MixingTime(pi, 1e-9, 100)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 1 {
		t.Fatalf("mixing time = %d, want 1", steps)
	}
}

func TestMixingTimeMonotoneInTolerance(t *testing.T) {
	m := birthDeath{k: 6, a: 0.45, d: 0.35}
	c, _ := Build(m, 0)
	pi, _ := c.Steady()
	loose, err := c.MixingTime(pi, 0.1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := c.MixingTime(pi, 0.001, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if tight < loose {
		t.Fatalf("tight tolerance mixed faster: %d < %d", tight, loose)
	}
	if loose == 0 {
		t.Fatal("non-stationary start cannot mix in 0 steps")
	}
}

func TestMixingTimeValidation(t *testing.T) {
	m := twoState{a: 0.5, b: 0.5}
	c, _ := Build(m, 0)
	pi, _ := c.Steady()
	if _, err := c.MixingTime(pi, 0, 10); err == nil {
		t.Fatal("accepted zero tolerance")
	}
	// Impossible tolerance within one step budget.
	m2 := birthDeath{k: 6, a: 0.45, d: 0.35}
	c2, _ := Build(m2, 0)
	pi2, _ := c2.Steady()
	if _, err := c2.MixingTime(pi2, 1e-12, 1); err == nil {
		t.Fatal("accepted unreachable step budget")
	}
}

func BenchmarkSteadyPower(b *testing.B) {
	c, _ := Build(birthDeath{k: 30, a: 0.45, d: 0.4}, 0)
	for i := 0; i < b.N; i++ {
		if _, err := c.Steady(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteadyGaussSeidel(b *testing.B) {
	c, _ := Build(birthDeath{k: 30, a: 0.45, d: 0.4}, 0)
	for i := 0; i < b.N; i++ {
		if _, err := c.SteadyGaussSeidel(); err != nil {
			b.Fatal(err)
		}
	}
}
