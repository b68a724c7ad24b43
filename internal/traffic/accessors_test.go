package traffic

import (
	"testing"

	"damq/internal/rng"
)

func TestLoadAccessors(t *testing.T) {
	h, _ := NewHotSpot(8, 0.3, 0.05, rng.New(1))
	if h.Load() != 0.3 {
		t.Fatalf("hotspot Load = %v", h.Load())
	}
	p, _ := NewPermutation(Identity(4), 0.7, rng.New(1))
	if p.Load() != 0.7 {
		t.Fatalf("permutation Load = %v", p.Load())
	}
	b, _ := NewBursty(8, 0.4, 2, rng.New(1))
	if b.Load() != 0.4 {
		t.Fatalf("bursty Load = %v", b.Load())
	}
}

func TestPermutationZeroLoad(t *testing.T) {
	p, _ := NewPermutation(Identity(4), 0, rng.New(1))
	for i := 0; i < 100; i++ {
		if _, _, ok := p.Generate(0); ok {
			t.Fatal("zero-load permutation generated")
		}
	}
}

func TestBurstySourceOutOfRangePanics(t *testing.T) {
	b, _ := NewBursty(4, 0.5, 2, rng.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Generate(9)
}
