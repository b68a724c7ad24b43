package rng

import (
	"bytes"
	"strings"
	"testing"

	"damq/internal/checkpoint"
)

// walkInto encodes from with its walk and decodes the stream into to,
// returning the decode's first error.
func walkInto(t *testing.T, from, to *Source) error {
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

// TestSourceWalk: a walked generator continues the identical stream;
// the all-zero state is rejected.
func TestSourceWalk(t *testing.T) {
	src := New(42)
	for i := 0; i < 5; i++ {
		src.Uint64()
	}
	dst := New(7)
	if err := walkInto(t, src, dst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a, b := src.Uint64(), dst.Uint64(); a != b {
			t.Fatalf("draw %d: walked stream %x, original %x", i, b, a)
		}
	}
	if err := walkInto(t, &Source{}, New(1)); err == nil || !strings.Contains(err.Error(), "all-zero state") {
		t.Fatalf("decode of the all-zero state = %v, want a rejection", err)
	}
}
