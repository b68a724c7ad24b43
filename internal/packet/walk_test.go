package packet

import (
	"bytes"
	"testing"

	"damq/internal/checkpoint"
)

// TestWalkWritesEncodedSize: one walked packet is exactly EncodedSize
// bytes, the unit checkpoint decoders bound packet counts with, and it
// decodes to the same fields.
func TestWalkWritesEncodedSize(t *testing.T) {
	p := Packet{ID: 1 << 60, Source: 3, Dest: 61, Slots: 4, Born: 17, Injected: -1,
		Hot: true, OutPort: 2, Bytes: 29, ReadyAt: 1 << 40}
	enc := checkpoint.NewEncoder()
	p.Walk(enc)
	if enc.Len() != EncodedSize {
		t.Fatalf("one packet encodes to %d bytes, EncodedSize is %d", enc.Len(), EncodedSize)
	}
	var buf bytes.Buffer
	if err := enc.Emit(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := checkpoint.NewDecoderBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var q Packet
	q.Walk(dec)
	if err := dec.Done(); err != nil || q != p {
		t.Fatalf("decoded %+v (err %v), want %+v", q, err, p)
	}
}
