package traffic

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"damq/internal/checkpoint"
	"damq/internal/rng"
)

// walker is what Pattern and Lengths share for checkpointing.
type walker interface{ Walk(*checkpoint.Codec) error }

// walkInto encodes from with its walk and decodes the stream into to,
// returning the decode's first error.
func walkInto(t *testing.T, from, to walker) error {
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

// TestPatternWalk: every pattern, walked mid-run into a twin built with
// another seed, generates the same packets as the original from then on.
func TestPatternWalk(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(seed uint64) Pattern
	}{
		{"uniform", func(seed uint64) Pattern { p, _ := NewUniform(8, 0.6, rng.New(seed)); return p }},
		{"hotspot", func(seed uint64) Pattern { p, _ := NewHotSpot(8, 0.6, 0.2, rng.New(seed)); return p }},
		{"permutation", func(seed uint64) Pattern {
			p, _ := NewPermutation([]int{3, 1, 0, 2, 7, 6, 5, 4}, 0.6, rng.New(seed))
			return p
		}},
		{"bursty", func(seed uint64) Pattern { p, _ := NewBursty(8, 0.6, 4, rng.New(seed)); return p }},
	} {
		name := tc.name
		p, twin := tc.mk(1), tc.mk(2)
		for cycle := 0; cycle < 20; cycle++ {
			for src := 0; src < 8; src++ {
				p.Generate(src)
			}
		}
		if err := walkInto(t, p, twin); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for cycle := 0; cycle < 50; cycle++ {
			for src := 0; src < 8; src++ {
				d1, h1, ok1 := p.Generate(src)
				d2, h2, ok2 := twin.Generate(src)
				if d1 != d2 || h1 != h2 || ok1 != ok2 {
					t.Fatalf("%s cycle %d source %d: twin generated (%d %v %v), original (%d %v %v)",
						name, cycle, src, d2, h2, ok2, d1, h1, ok1)
				}
			}
		}
	}
	u, twin := UniformLengths{Lo: 1, Hi: 4, Src: rng.New(1)}, UniformLengths{Lo: 1, Hi: 4, Src: rng.New(2)}
	if err := walkInto(t, u, twin); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if a, b := u.Draw(), twin.Draw(); a != b {
			t.Fatalf("length draw %d: twin %d, original %d", i, b, a)
		}
	}
	if err := walkInto(t, Fixed(2), Fixed(2)); err != nil {
		t.Fatal(err)
	}
}

// TestBurstyWalkRejects: the burst registers round-trip exactly, and
// each decoded register that does not fit the pattern's geometry — or a
// dead random stream — is rejected.
func TestBurstyWalkRejects(t *testing.T) {
	mk := func(n int) *Bursty { b, _ := NewBursty(n, 0.6, 4, rng.New(5)); return b }
	b := mk(8)
	for src := 0; src < 8; src++ {
		b.Generate(src)
	}
	twin := mk(8)
	if err := walkInto(t, b, twin); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(twin.remaining, b.remaining) || !slices.Equal(twin.dest, b.dest) {
		t.Fatalf("burst registers %v %v, want %v %v", twin.remaining, twin.dest, b.remaining, b.dest)
	}
	for _, tc := range []struct {
		name string
		from *Bursty
		want string
	}{
		{"fewer inputs", mk(6), "burst state for 6 inputs loaded into 8-input pattern"},
		{"negative remainder", func() *Bursty { b := mk(8); b.remaining[2] = -1; return b }(), "negative burst remainder -1"},
		{"destination past the network", func() *Bursty { b := mk(8); b.dest[3] = 8; return b }(), "burst destination 8 out of range [0, 8)"},
		{"negative destination", func() *Bursty { b := mk(8); b.dest[3] = -1; return b }(), "burst destination -1 out of range [0, 8)"},
		{"all-zero stream", func() *Bursty { b := mk(8); b.src = &rng.Source{}; return b }(), "all-zero state"},
	} {
		err := walkInto(t, tc.from, mk(8))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
