package stats

import (
	"bytes"
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
