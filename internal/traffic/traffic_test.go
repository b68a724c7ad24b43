package traffic

import (
	"math"
	"testing"

	"damq/internal/rng"
)

func TestUniformValidation(t *testing.T) {
	if _, err := NewUniform(0, 0.5, rng.New(1)); err == nil {
		t.Error("accepted zero destinations")
	}
	if _, err := NewUniform(4, 1.5, rng.New(1)); err == nil {
		t.Error("accepted load > 1")
	}
	if _, err := NewUniform(4, -0.5, rng.New(1)); err == nil {
		t.Error("accepted negative load")
	}
}

func TestUniformRate(t *testing.T) {
	u, err := NewUniform(64, 0.4, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if u.Load() != 0.4 {
		t.Fatalf("Load() = %v", u.Load())
	}
	const n = 100000
	born := 0
	counts := make([]int, 64)
	for i := 0; i < n; i++ {
		if dest, hot, ok := u.Generate(0); ok {
			born++
			counts[dest]++
			if hot {
				t.Fatal("uniform produced hot packet")
			}
		}
	}
	rate := float64(born) / n
	if math.Abs(rate-0.4) > 0.01 {
		t.Fatalf("arrival rate = %v", rate)
	}
	// Destinations roughly uniform.
	want := float64(born) / 64
	for d, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("dest %d drawn %d times, want ~%.0f", d, c, want)
		}
	}
}

func TestHotSpotValidation(t *testing.T) {
	if _, err := NewHotSpot(0, 0.5, 0.05, rng.New(1)); err == nil {
		t.Error("accepted zero destinations")
	}
	if _, err := NewHotSpot(4, 0.5, 1.5, rng.New(1)); err == nil {
		t.Error("accepted fraction > 1")
	}
	if _, err := NewHotSpot(4, 2, 0.05, rng.New(1)); err == nil {
		t.Error("accepted load > 1")
	}
}

func TestHotSpotFraction(t *testing.T) {
	h, err := NewHotSpot(64, 1.0, 0.05, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	hotCount, toHot := 0, 0
	for i := 0; i < n; i++ {
		dest, hot, ok := h.Generate(0)
		if !ok {
			t.Fatal("load 1.0 must always generate")
		}
		if hot {
			hotCount++
			if dest != HotModule {
				t.Fatal("hot packet not addressed to hot module")
			}
		}
		if dest == HotModule {
			toHot++
		}
	}
	if f := float64(hotCount) / n; math.Abs(f-0.05) > 0.005 {
		t.Fatalf("hot fraction = %v", f)
	}
	// Total traffic to the hot module: 5% + 95%/64.
	wantHot := 0.05 + 0.95/64
	if f := float64(toHot) / n; math.Abs(f-wantHot) > 0.005 {
		t.Fatalf("traffic to hot module = %v, want ~%v", f, wantHot)
	}
}

func TestPermutation(t *testing.T) {
	perm := []int{2, 0, 3, 1}
	p, err := NewPermutation(perm, 1.0, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for src, want := range perm {
		dest, hot, ok := p.Generate(src)
		if !ok || hot || dest != want {
			t.Fatalf("Generate(%d) = %d,%v,%v", src, dest, hot, ok)
		}
	}
	if p.String() == "" || p.Load() != 1.0 {
		t.Fatal("metadata wrong")
	}
}

func TestPermutationValidation(t *testing.T) {
	if _, err := NewPermutation([]int{0, 0, 1, 2}, 0.5, rng.New(1)); err == nil {
		t.Error("accepted duplicate destinations")
	}
	if _, err := NewPermutation([]int{0, 4, 1, 2}, 0.5, rng.New(1)); err == nil {
		t.Error("accepted out-of-range destination")
	}
	if _, err := NewPermutation(Identity(4), 1.5, rng.New(1)); err == nil {
		t.Error("accepted bad load")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(5)
	for i, v := range id {
		if v != i {
			t.Fatalf("Identity = %v", id)
		}
	}
}

func TestFixedLengths(t *testing.T) {
	f := Fixed(3)
	if f.Draw() != 3 || f.Mean() != 3 {
		t.Fatal("Fixed lengths wrong")
	}
}

func TestUniformLengths(t *testing.T) {
	u := UniformLengths{Lo: 1, Hi: 4, Src: rng.New(5)}
	if u.Mean() != 2.5 {
		t.Fatalf("mean = %v", u.Mean())
	}
	sum := 0
	const n = 50000
	for i := 0; i < n; i++ {
		v := u.Draw()
		if v < 1 || v > 4 {
			t.Fatalf("Draw = %d", v)
		}
		sum += v
	}
	if mean := float64(sum) / n; math.Abs(mean-2.5) > 0.05 {
		t.Fatalf("empirical mean = %v", mean)
	}
}

func TestStrings(t *testing.T) {
	u, _ := NewUniform(4, 0.5, rng.New(1))
	h, _ := NewHotSpot(4, 0.5, 0.05, rng.New(1))
	if u.String() == "" || h.String() == "" {
		t.Fatal("empty descriptions")
	}
}
