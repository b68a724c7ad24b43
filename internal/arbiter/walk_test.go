package arbiter

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"damq/internal/checkpoint"
)

// walkInto encodes from with its walk and decodes the stream into to,
// returning the decode's first error.
func walkInto(t *testing.T, from, to *Arbiter) error {
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

// TestArbiterStateRoundTrip pins the arbiter walk the checkpoint's
// switch section rides on: the priority pointer and stale counters
// restore exactly, and each decoded value that does not fit the
// arbiter's port counts is rejected.
func TestArbiterStateRoundTrip(t *testing.T) {
	a := New(Smart, 4, 4)
	a.prio = 2
	for i := range a.stale {
		a.stale[i] = int64(3 * i)
	}
	b := New(Smart, 4, 4)
	if err := walkInto(t, a, b); err != nil {
		t.Fatal(err)
	}
	if b.prio != a.prio || !slices.Equal(b.stale, a.stale) {
		t.Fatalf("arbiter state did not round-trip: prio %d stale %v, want %d %v", b.prio, b.stale, a.prio, a.stale)
	}
	for _, tc := range []struct {
		name string
		from *Arbiter
		want string
	}{
		{"priority past the inputs", func() *Arbiter { a := New(Smart, 4, 4); a.prio = 4; return a }(),
			"priority 4 out of range [0, 4)"},
		{"negative priority", func() *Arbiter { a := New(Smart, 4, 4); a.prio = -1; return a }(),
			"priority -1 out of range [0, 4)"},
		{"another switch shape", New(Smart, 4, 2), "8 stale counters for a 4×4 switch"},
		{"negative stale count", func() *Arbiter { a := New(Smart, 4, 4); a.stale[5] = -1; return a }(),
			"negative stale count -1"},
	} {
		err := walkInto(t, tc.from, New(Smart, 4, 4))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
