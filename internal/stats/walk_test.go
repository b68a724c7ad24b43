package stats

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"damq/internal/checkpoint"
)

// walkInto encodes from with its walk and decodes the stream into to,
// returning the decode's first error.
func walkInto(t *testing.T, from, to *Summary) error {
	t.Helper()
	enc := checkpoint.NewEncoder()
	if err := from.Walk(enc); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := enc.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := checkpoint.NewDecoderBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := to.Walk(dec); err != nil {
		return err
	}
	return dec.Done()
}

// TestSummaryWalk: a walked summary holds the same registers and, fed
// the same further observations, stays bit-identical to the original; a
// negative observation count is rejected.
func TestSummaryWalk(t *testing.T) {
	var s Summary
	for _, x := range []float64{3.5, -1, 12.25, 7} {
		s.Add(x)
	}
	var r Summary
	r.Add(99) // decoding overwrites every register
	if err := walkInto(t, &s, &r); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.1, 40, -3} {
		s.Add(x)
		r.Add(x)
		if r != s {
			t.Fatalf("after %v: walked summary %+v, original %+v", x, r, s)
		}
	}
	bad := Summary{n: -1}
	if err := walkInto(t, &bad, &Summary{}); err == nil || !strings.Contains(err.Error(), "negative count -1") {
		t.Fatalf("decode of a negative count = %v, want a rejection", err)
	}
}

// histWalkInto encodes from with its walk and decodes the stream into
// to, returning the decode's first error.
func histWalkInto(t *testing.T, from, to *Histogram) error {
	t.Helper()
	enc := checkpoint.NewEncoder()
	if err := from.Walk(enc); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := enc.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := checkpoint.NewDecoderBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := to.Walk(dec); err != nil {
		return err
	}
	return dec.Done()
}

// TestHistogramWalk: a walked histogram holds the same contents; a
// stream written for another shape, or holding contents no samples
// produce, is rejected and leaves the target as it was.
func TestHistogramWalk(t *testing.T) {
	h := NewHistogram(4, 10) // buckets [0,10) [10,20) [20,30) [30,40)
	for _, v := range []int64{3, 12, 12, 39, 400} {
		h.Observe(v)
	}
	r := NewHistogram(4, 10)
	r.Observe(25) // decoding overwrites the contents
	if err := histWalkInto(t, h, r); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, h) {
		t.Fatalf("walked histogram %+v, original %+v", r, h)
	}

	// Width 10: 2 samples in [0,10), 1 in [20,30) → sum within [20, 47].
	contents := func(sum int64) *Histogram {
		return &Histogram{width: 10, buckets: []int64{2, 0, 1}, total: 3, sum: sum}
	}
	for _, tc := range []struct {
		what string
		from *Histogram
		want string
	}{
		{"wrong width", &Histogram{width: 5, buckets: []int64{2, 0, 1}, total: 3, sum: 20}, "width 5"},
		{"wrong bucket count", NewHistogram(4, 10), "4 restored buckets"},
		{"negative sum", contents(-1), "below"},
		{"sum below the buckets", contents(19), "below"},
		{"sum above the buckets", contents(48), "above"},
	} {
		to := NewHistogram(3, 10)
		err := histWalkInto(t, tc.from, to)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode = %v, want an error mentioning %q", tc.what, err, tc.want)
		}
		if to.Total() != 0 {
			t.Errorf("%s: rejected decode changed the histogram: %+v", tc.what, to)
		}
	}
	if err := histWalkInto(t, contents(47), NewHistogram(3, 10)); err != nil {
		t.Errorf("greatest sum the buckets hold rejected: %v", err)
	}
}
