package stats

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"damq/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Population variance of this classic set is 4; sample variance is 32/7.
	if !almostEq(s.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Fatalf("single-element summary wrong: %v", s.String())
	}
}

func TestSummaryAddN(t *testing.T) {
	var a, b Summary
	a.AddN(2.0, 5)
	for i := 0; i < 5; i++ {
		b.Add(2.0)
	}
	if a.N() != b.N() || a.Mean() != b.Mean() {
		t.Fatal("AddN disagrees with repeated Add")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				return true // skip pathological inputs
			}
		}
		if len(xs) == 0 {
			return true
		}
		k := int(split) % len(xs)
		var whole, left, right Summary
		for _, x := range xs {
			whole.Add(x)
		}
		for _, x := range xs[:k] {
			left.Add(x)
		}
		for _, x := range xs[k:] {
			right.Add(x)
		}
		left.Merge(&right)
		return left.N() == whole.N() &&
			almostEq(left.Mean(), whole.Mean(), 1e-6*(1+math.Abs(whole.Mean()))) &&
			almostEq(left.Variance(), whole.Variance(), 1e-4*(1+whole.Variance()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMergeMinMax(t *testing.T) {
	var a, b Summary
	a.Add(5)
	a.Add(7)
	b.Add(1)
	b.Add(9)
	a.Merge(&b)
	if a.Min() != 1 || a.Max() != 9 || a.N() != 4 {
		t.Fatalf("merge min/max wrong: %v", a.String())
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(2)
	out := s.String()
	for _, want := range []string{"n=2", "mean=1.5", "min=1", "max=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() = %q missing %q", out, want)
		}
	}
}

func TestHistogramMeanEmpty(t *testing.T) {
	h := NewHistogram(4, 1)
	if h.Mean() != 0 {
		t.Fatal("empty histogram mean should be 0")
	}
}

func TestHistogramQuantileClamps(t *testing.T) {
	h := NewHistogram(4, 1)
	h.Observe(0)
	h.Observe(1)
	if q := h.Quantile(-1); q != h.Quantile(0) {
		t.Fatalf("negative q not clamped: %v", q)
	}
	if q := h.Quantile(2); q != h.Quantile(1) {
		t.Fatalf("q>1 not clamped: %v", q)
	}
}

func TestHistogramQuantileAllOverflow(t *testing.T) {
	h := NewHistogram(2, 1)
	h.Observe(100)
	// All mass in overflow: quantile reports the overflow boundary.
	if q := h.Quantile(0.5); q != 2 {
		t.Fatalf("overflow quantile = %v, want 2", q)
	}
}

func TestSummaryMergeEmpty(t *testing.T) {
	var a, b Summary
	a.Add(1)
	a.Add(3)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 2 || a.Mean() != 2 {
		t.Fatal("merge with empty changed the summary")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 2 || b.Mean() != 2 {
		t.Fatal("merge into empty did not copy")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	src := rng.New(1)
	var small, large Summary
	for i := 0; i < 100; i++ {
		small.Add(src.Float64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(src.Float64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 10)
	for _, x := range []int64{5, 15, 17, 99, 1000} {
		h.Observe(x)
	}
	if h.Total() != 5 {
		t.Fatalf("total = %d", h.Total())
	}
	b := h.Buckets()
	if b[0] != 1 || b[1] != 2 || b[9] != 1 {
		t.Fatalf("buckets = %v", b)
	}
	if h.Overflow() != 1 {
		t.Fatalf("overflow = %d", h.Overflow())
	}
	if h.Sum() != 5+15+17+99+1000 || h.Mean() != float64(5+15+17+99+1000)/5 {
		t.Fatalf("sum = %d, mean = %v", h.Sum(), h.Mean())
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram(4, 1)
	h.Observe(-3)
	if h.Buckets()[0] != 1 || h.Sum() != 0 {
		t.Fatalf("negative value did not clamp to 0: buckets %v, sum %d", h.Buckets(), h.Sum())
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(100, 1)
	for i := int64(0); i < 100; i++ {
		h.Observe(i)
	}
	med := h.Quantile(0.5)
	if med < 45 || med > 55 {
		t.Fatalf("median = %v", med)
	}
	if q := h.Quantile(0); q > 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := h.Quantile(1); q < 98 {
		t.Fatalf("q1 = %v", q)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(4, 1)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestNewHistogramPanics(t *testing.T) {
	for _, shape := range []struct {
		buckets int
		width   int64
	}{{0, 1}, {4, 0}, {-1, 1}, {4, -2}} {
		mustPanic(t, fmt.Sprintf("NewHistogram(%d, %d)", shape.buckets, shape.width), func() {
			NewHistogram(shape.buckets, shape.width)
		})
	}
}

// TestHistogramMerge: merging per-part histograms equals observing every
// sample in one, and histograms of different shapes refuse to merge.
func TestHistogramMerge(t *testing.T) {
	whole, a, b := NewHistogram(4, 10), NewHistogram(4, 10), NewHistogram(4, 10)
	for i, v := range []int64{0, 7, 13, 39, 40, 500, -2} {
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(b)
	a.Merge(NewHistogram(4, 10)) // empty: no-op
	a.Merge(nil)
	if !reflect.DeepEqual(a, whole) {
		t.Errorf("merged %+v, observed together %+v", a, whole)
	}
	for _, other := range []*Histogram{NewHistogram(5, 10), NewHistogram(4, 12)} {
		other.Observe(1)
		mustPanic(t, fmt.Sprintf("merging %dx%d into 4x10", len(other.Buckets()), other.Width()),
			func() { a.Merge(other) })
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestSeriesSorted(t *testing.T) {
	var s Series
	s.Add(Point{Offered: 0.5, Latency: 50})
	s.Add(Point{Offered: 0.1, Latency: 40})
	s.Add(Point{Offered: 0.3, Latency: 42})
	if s.Points[0].Offered != 0.1 || s.Points[2].Offered != 0.5 {
		t.Fatalf("series not sorted: %+v", s.Points)
	}
}

func TestSaturationThroughput(t *testing.T) {
	var s Series
	for _, p := range []Point{
		{Offered: 0.2, Throughput: 0.2, Latency: 42},
		{Offered: 0.4, Throughput: 0.4, Latency: 48},
		{Offered: 0.6, Throughput: 0.52, Latency: 90},
		{Offered: 0.8, Throughput: 0.51, Latency: 170},
		{Offered: 1.0, Throughput: 0.51, Latency: 171},
	} {
		s.Add(p)
	}
	if got := s.SaturationThroughput(); got != 0.52 {
		t.Fatalf("saturation = %v", got)
	}
}

func TestLatencyAtInterpolates(t *testing.T) {
	var s Series
	s.Add(Point{Offered: 0.2, Throughput: 0.2, Latency: 40})
	s.Add(Point{Offered: 0.4, Throughput: 0.4, Latency: 60})
	l, ok := s.LatencyAt(0.3)
	if !ok || !almostEq(l, 50, 1e-9) {
		t.Fatalf("LatencyAt(0.3) = %v, %v", l, ok)
	}
	l, _ = s.LatencyAt(0.05)
	if l != 40 {
		t.Fatalf("below-range latency = %v", l)
	}
	l, _ = s.LatencyAt(0.9)
	if l != 60 {
		t.Fatalf("above-range latency = %v", l)
	}
}

func TestLatencyAtEmpty(t *testing.T) {
	var s Series
	if _, ok := s.LatencyAt(0.5); ok {
		t.Fatal("empty series should report !ok")
	}
}
