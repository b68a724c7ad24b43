package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws of 64", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	// Must not be the all-zero xoshiro fixed point.
	var allZero bool = true
	for i := 0; i < 16; i++ {
		if s.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("seed 0 produced the all-zero stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Child must not replay the parent's upcoming stream.
	same := 0
	for i := 0; i < 64; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("parent/child streams coincide in %d of 64 draws", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	c1 := New(9).Split()
	c2 := New(9).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of %d uniforms = %v, want ~0.5", n, mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	s := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("value %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestUint64nPowerOfTwo(t *testing.T) {
	s := New(17)
	for i := 0; i < 1000; i++ {
		if v := s.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
		{0xdeadbeefcafebabe, 0x123456789abcdef0, 0x0fd5bdeeeb2a01d7, 0xeb689f4ea447d620},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%#x,%#x) = (%#x,%#x), want (%#x,%#x)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestMul64MatchesBigProperty(t *testing.T) {
	// Property: low 64 bits of the product must equal wrapping a*b.
	f := func(a, b uint64) bool {
		_, lo := mul64(a, b)
		return lo == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbabilities(t *testing.T) {
	s := New(19)
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", p)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(37)
	const p, n = 0.25, 100000
	sum := 0
	for i := 0; i < n; i++ {
		v := s.Geometric(p)
		if v < 1 {
			t.Fatalf("Geometric returned %d < 1", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	if math.Abs(mean-1/p) > 0.1 {
		t.Fatalf("Geometric(%v) mean %v, want ~%v", p, mean, 1/p)
	}
}

func TestGeometricOne(t *testing.T) {
	s := New(41)
	for i := 0; i < 100; i++ {
		if v := s.Geometric(1); v != 1 {
			t.Fatalf("Geometric(1) = %d", v)
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%v) did not panic", p)
				}
			}()
			New(1).Geometric(p)
		}()
	}
}

func TestIntnRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntnRange(5,4) did not panic")
		}
	}()
	New(1).IntnRange(5, 4)
}

func TestIntnRange(t *testing.T) {
	s := New(43)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.IntnRange(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("IntnRange(3,7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("IntnRange(3,7) did not cover the range: %v", seen)
	}
	if v := s.IntnRange(4, 4); v != 4 {
		t.Fatalf("IntnRange(4,4) = %d", v)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += s.Intn(100)
	}
	_ = sink
}
