package comcobb

import (
	"bytes"
	"testing"
)

// FuzzDecodeWire feeds arbitrary byte streams, reinterpreted as wire
// symbol captures, to the decoder: it must never panic and never return
// packets longer than its input could encode.
func FuzzDecodeWire(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xFF, 0x00, 0x20, 0x01, 0x02})
	f.Add([]byte{0x80, 0x42, 0x00}) // zero length byte
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Reinterpret: byte with high bit set = start symbol, otherwise a
		// data byte; 0xFE = idle gap.
		var syms []wireSymbol
		for _, b := range raw {
			switch {
			case b == 0xFE:
				syms = append(syms, wireSymbol{})
			case b >= 0x80:
				syms = append(syms, wireSymbol{start: true})
			default:
				syms = append(syms, wireSymbol{valid: true, b: b})
			}
		}
		pkts := DecodeWire(syms)
		total := 0
		for _, p := range pkts {
			total += 3 + len(p.Data)
		}
		if total > len(syms)+MaxDataBytes {
			t.Fatalf("decoded %d symbol-equivalents from %d symbols", total, len(syms))
		}
		// Continuation-aware decoding must not panic either.
		_ = DecodeWireWith(syms, map[byte]int{0x01: 8, 0x02: 32})
	})
}

// FuzzDecodeWireAppend drives the scratch-reusing decoder with arbitrary
// framing-wire states — start+valid set together, stale parity, fuzzed
// continuation tables — which the simpler byte reinterpretation above
// cannot express. It must never panic, never fabricate payload beyond
// the advertised length, and must decode identically into fresh or
// reused scratch.
func FuzzDecodeWireAppend(f *testing.F) {
	// Flags byte per symbol: bit0 start, bit1 valid, bit2 parity wire.
	f.Add([]byte{1, 0, 2, 0x01, 2, 2, 2, 0xA0, 2, 0xA1}, byte(0), byte(0))
	f.Add([]byte{1, 0}, byte(0), byte(0))                                  // truncated after start bit
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0x05, 6, 0x10}, byte(0x05), byte(3)) // continuation circuit
	f.Add([]byte{3, 0x7F, 7, 0xFF}, byte(0xFF), byte(32))                  // start+valid, all wires high
	f.Fuzz(func(t *testing.T, raw []byte, contHdr, contLen byte) {
		syms := make([]wireSymbol, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			syms = append(syms, wireSymbol{
				start: raw[i]&1 != 0,
				valid: raw[i]&2 != 0,
				par:   raw[i]&4 != 0,
				b:     raw[i+1],
			})
		}
		var cl map[byte]int
		if contLen > 0 {
			cl = map[byte]int{contHdr: int(contLen)}
		}
		pkts := DecodeWireAppend(nil, syms, cl)
		for _, p := range pkts {
			max := 255
			if n, ok := cl[p.Header]; ok {
				max = n
			}
			if len(p.Data) > max {
				t.Fatalf("decoded %d payload bytes for header %#02x, advertised at most %d",
					len(p.Data), p.Header, max)
			}
		}
		// Reused scratch must not change what is decoded.
		scratch := make([]DecodedPacket, 4, 8)
		again := DecodeWireAppend(scratch[:0], syms, cl)
		if len(again) != len(pkts) {
			t.Fatalf("scratch re-decode found %d packets, first pass %d", len(again), len(pkts))
		}
		for i := range pkts {
			if pkts[i].Header != again[i].Header || !bytes.Equal(pkts[i].Data, again[i].Data) {
				t.Fatalf("scratch re-decode diverged at packet %d: %+v vs %+v", i, pkts[i], again[i])
			}
		}
	})
}

// FuzzWireRoundTrip: encode-decode is the identity for every legal
// (header, payload).
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(byte(0x01), []byte{1, 2, 3})
	f.Add(byte(0xFF), bytes.Repeat([]byte{0xAA}, 32))
	f.Fuzz(func(t *testing.T, header byte, data []byte) {
		if len(data) == 0 || len(data) > MaxDataBytes {
			return
		}
		pkts := DecodeWire(AppendWire(nil, header, data))
		if len(pkts) != 1 || pkts[0].Header != header || !bytes.Equal(pkts[0].Data, data) {
			t.Fatalf("round trip failed: %+v", pkts)
		}
		cont := DecodeWireWith(AppendWireCont(nil, header, data), map[byte]int{header: len(data)})
		if len(cont) != 1 || !bytes.Equal(cont[0].Data, data) {
			t.Fatalf("continuation round trip failed: %+v", cont)
		}
	})
}
