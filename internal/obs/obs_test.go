package obs

import (
	"reflect"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
}

func TestHistogram(t *testing.T) {
	// Buckets [0,10) [10,20) [20,30) [30,40), overflow above.
	h := NewRegistry().Histogram("h", 4, 10)
	for _, v := range []int64{0, 9, 10, 35, 400, -5} {
		h.Observe(v)
	}
	if h.Total() != 6 {
		t.Errorf("total = %d, want 6", h.Total())
	}
	// The negative observation clamps to 0; sum counts clamped values.
	if h.Sum() != 0+9+10+35+400+0 {
		t.Errorf("sum = %d", h.Sum())
	}
	if got := h.buckets[0]; got != 3 { // 0, 9, clamped -5
		t.Errorf("bucket0 = %d, want 3", got)
	}
	if h.overflow != 1 {
		t.Errorf("overflow = %d, want 1", h.overflow)
	}
	if h.Mean() != float64(h.Sum())/6 {
		t.Errorf("mean = %v", h.Mean())
	}
}

// TestObserveNMatchesObserve: n samples recorded in one ObserveN call
// leave the histogram exactly as n Observe calls do, overflow and
// clamping included.
func TestObserveNMatchesObserve(t *testing.T) {
	one := NewRegistry().Histogram("h", 4, 10)
	batch := NewRegistry().Histogram("h", 4, 10)
	for _, c := range []struct{ v, n int64 }{{0, 3}, {9, 1}, {25, 4}, {400, 2}, {-5, 2}, {7, 0}} {
		for i := int64(0); i < c.n; i++ {
			one.Observe(c.v)
		}
		batch.ObserveN(c.v, c.n)
	}
	if !reflect.DeepEqual(one, batch) {
		t.Errorf("ObserveN histogram %+v, Observe histogram %+v", batch, one)
	}
}

// TestCheckContents pins which captured contents Restore accepts: the
// counts must add up, and the sum must lie within what the buckets hold
// (bounded above only without overflow).
func TestCheckContents(t *testing.T) {
	// Width 10: 2 samples in [0,10), 1 in [20,30) → sum within [20, 47].
	buckets := []int64{2, 0, 1}
	for _, c := range []struct {
		name                 string
		overflow, total, sum int64
		ok                   bool
	}{
		{"least sum", 0, 3, 20, true},
		{"greatest sum", 0, 3, 47, true},
		{"negative sum", 0, 3, -1, false},
		{"sum below the buckets", 0, 3, 19, false},
		{"sum above the buckets", 0, 3, 48, false},
		{"overflow lifts the bound", 1, 4, 1000, true},
		{"overflow sum below its floor", 1, 4, 49, false},
		{"total disagrees", 0, 4, 20, false},
	} {
		err := CheckContents(10, buckets, c.overflow, c.total, c.sum)
		if (err == nil) != c.ok {
			t.Errorf("%s: CheckContents = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if err := CheckContents(1, []int64{-1, 1}, 0, 0, 1); err == nil {
		t.Error("negative bucket accepted")
	}
	if err := CheckContents(1, []int64{1 << 62, 1 << 62}, 0, -1<<63, 0); err == nil {
		t.Error("bucket counts that wrap int64 accepted")
	}
}

func TestRegistryIdentityAndShapeChecks(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same name must return the same counter")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("same name must return the same gauge")
	}
	if r.Histogram("h", 8, 2) != r.Histogram("h", 8, 2) {
		t.Error("same name+shape must return the same histogram")
	}
	mustPanic(t, "histogram shape mismatch", func() { r.Histogram("h", 8, 3) })
	mustPanic(t, "bad histogram shape", func() { r.Histogram("h2", 0, 1) })
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

func TestSnapshotRoundTrip(t *testing.T) {
	o := NewObserver()
	r := o.Registry()
	r.Counter("c.one").Add(3)
	r.Gauge("g.level").Set(-2)
	h := r.Histogram("h.lat", 6, 5)
	h.Observe(0)
	h.Observe(12)
	h.Observe(999)
	o.SetInterval(10)
	o.RecordInterval(IntervalRecord{Cycle: 10, Delivered: 1})
	o.RecordInterval(IntervalRecord{Cycle: 20, Delivered: 4})

	s := o.Snapshot()
	if v, ok := s.Counter("c.one"); !ok || v != 3 {
		t.Errorf("counter = %d,%v", v, ok)
	}
	if v, ok := s.Gauge("g.level"); !ok || v != -2 {
		t.Errorf("gauge = %d,%v", v, ok)
	}
	hs, ok := s.Histogram("h.lat")
	if !ok || hs.Total != 3 || hs.Overflow != 1 || hs.Width != 5 {
		t.Fatalf("histogram snapshot = %+v,%v", hs, ok)
	}
	// Trailing zero buckets are trimmed: observations landed in buckets
	// 0 and 2, so exactly 3 buckets survive.
	if len(hs.Buckets) != 3 {
		t.Errorf("buckets = %v, want 3 entries", hs.Buckets)
	}
	var inBuckets int64
	for _, b := range hs.Buckets {
		inBuckets += b
	}
	if inBuckets+hs.Overflow != hs.Total {
		t.Errorf("bucket sum %d + overflow %d != total %d", inBuckets, hs.Overflow, hs.Total)
	}
	if len(s.Series) != 2 || s.Series[1].Delivered != 4 {
		t.Errorf("series = %+v", s.Series)
	}

	raw, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("roundtrip mismatch:\n%+v\n%+v", s, back)
	}

	// Deterministic bytes: a second encode of an equal registry matches.
	raw2, err := o.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Error("snapshot encoding is not byte-stable")
	}
}

func TestObserverIntervalClamp(t *testing.T) {
	o := NewObserver()
	o.SetInterval(-5)
	if o.Interval() != 0 {
		t.Errorf("interval = %d, want 0", o.Interval())
	}
	if o.Snapshot().Series != nil {
		t.Error("empty series must stay nil in snapshots")
	}
}
