package omega

import (
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 4); err == nil {
		t.Error("accepted radix 1")
	}
	if _, err := New(4, 2); err == nil {
		t.Error("accepted inputs < radix")
	}
	if _, err := New(4, 48); err == nil {
		t.Error("accepted non-power inputs")
	}
	if _, err := New(maxRadix+1, maxRadix+1); err == nil {
		t.Error("accepted a radix whose digits overflow a byte")
	}
	for _, bad := range [][2]int{{1, 4}, {4, 2}, {4, 48}, {4, 32}, {3, 24}, {2, 6}} {
		if _, err := Stages(bad[0], bad[1]); err == nil {
			t.Errorf("Stages(%d, %d) accepted a bad shape", bad[0], bad[1])
		}
	}
	for _, cfg := range tableShapes {
		stages, err := Stages(cfg.k, cfg.n)
		if err != nil || stages != MustNew(cfg.k, cfg.n).Stages() {
			t.Errorf("Stages(%d, %d) = %d, %v; New builds %d stages", cfg.k, cfg.n, stages, err, MustNew(cfg.k, cfg.n).Stages())
		}
	}
	top, err := New(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if top.Stages() != 3 || top.SwitchesPerStage() != 16 || top.Radix() != 4 || top.Inputs() != 64 {
		t.Fatalf("64-input radix-4: %+v", top)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(4, 63)
}

func TestShuffleIsPermutation(t *testing.T) {
	for _, cfg := range []struct{ k, n int }{{2, 8}, {4, 64}, {2, 64}, {4, 16}} {
		top := MustNew(cfg.k, cfg.n)
		seen := make([]bool, cfg.n)
		for x := 0; x < cfg.n; x++ {
			y := top.Shuffle(x)
			if y < 0 || y >= cfg.n || seen[y] {
				t.Fatalf("k=%d n=%d: shuffle not a permutation at %d->%d", cfg.k, cfg.n, x, y)
			}
			seen[y] = true
		}
	}
}

func TestShuffleRotatesDigits(t *testing.T) {
	// For k=2, N=8: shuffle(x) is a left rotate of 3 bits.
	top := MustNew(2, 8)
	cases := map[int]int{0: 0, 1: 2, 2: 4, 3: 6, 4: 1, 5: 3, 6: 5, 7: 7}
	for x, want := range cases {
		if got := top.Shuffle(x); got != want {
			t.Errorf("shuffle(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestSwitchPortLineRoundTrip(t *testing.T) {
	f := func(sw, port uint8) bool {
		k := 4
		s, p := int(sw)%16, int(port)%k
		line := Line(k, s, p)
		gs, gp := SwitchPort(k, line)
		return gs == s && gp == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteDigit(t *testing.T) {
	top := MustNew(4, 64)
	// dest 0b digits: dest = d0*16 + d1*4 + d2 (MSB first).
	dest := 2*16 + 3*4 + 1
	if top.RouteDigit(dest, 0) != 2 || top.RouteDigit(dest, 1) != 3 || top.RouteDigit(dest, 2) != 1 {
		t.Fatalf("digits = %d,%d,%d", top.RouteDigit(dest, 0), top.RouteDigit(dest, 1), top.RouteDigit(dest, 2))
	}
}

// hop is one switch traversal on a path.
type hop struct{ stage, sw, in, out int }

// path is the arithmetic reference route from network input src to
// network output dest, built from the definitions the tables are
// computed from: the shuffle (Shuffle, then SwitchPort) before every
// stage, and stage s routing on digit dest / k^(S-1-s) % k.
func path(t *Topology, src, dest int) []hop {
	k, stages := t.Radix(), t.Stages()
	div := 1
	for s := 1; s < stages; s++ {
		div *= k
	}
	hops := make([]hop, 0, stages)
	sw, port := SwitchPort(k, t.Shuffle(src))
	for s := 0; s < stages; s++ {
		out := dest / div % k
		hops = append(hops, hop{s, sw, port, out})
		sw, port = SwitchPort(k, t.Shuffle(Line(k, sw, out)))
		div /= k
	}
	return hops
}

// tableShapes are the topologies the table tests cover: radix 2, 3, 4
// and 8, at one and several stages.
var tableShapes = []struct{ k, n int }{
	{2, 2}, {2, 8}, {2, 64}, {3, 3}, {3, 27}, {3, 81}, {4, 16}, {4, 64}, {4, 256}, {8, 64}, {8, 512},
}

// TestTablesMatchArithmetic compares every entry of the digit and hop
// tables with the arithmetic definitions, for every line, destination
// and stage.
func TestTablesMatchArithmetic(t *testing.T) {
	for _, cfg := range tableShapes {
		top := MustNew(cfg.k, cfg.n)
		k := cfg.k
		for line := 0; line < cfg.n; line++ {
			wsw, wport := SwitchPort(k, top.Shuffle(line))
			if sw, port := top.FirstStageSwitch(line); sw != wsw || port != wport {
				t.Fatalf("k=%d n=%d: FirstStageSwitch(%d) = (%d,%d), want (%d,%d)", k, cfg.n, line, sw, port, wsw, wport)
			}
			lsw, out := SwitchPort(k, line)
			if sw, port := top.NextStage(lsw, out); sw != wsw || port != wport {
				t.Fatalf("k=%d n=%d: NextStage(%d,%d) = (%d,%d), want (%d,%d)", k, cfg.n, lsw, out, sw, port, wsw, wport)
			}
		}
		div := cfg.n
		for s := 0; s < top.Stages(); s++ {
			div /= k
			digits := top.Digits(s)
			if len(digits) != cfg.n {
				t.Fatalf("k=%d n=%d: stage %d digit table has %d entries", k, cfg.n, s, len(digits))
			}
			for dest := 0; dest < cfg.n; dest++ {
				want := dest / div % k
				if got := top.RouteDigit(dest, s); got != want || int(digits[dest]) != want {
					t.Fatalf("k=%d n=%d: stage %d digit of %d = %d (table %d), want %d",
						k, cfg.n, s, dest, got, digits[dest], want)
				}
			}
		}
	}
}

// TestAllPathsDeliver is the key topology correctness check: for every
// (src, dest) pair, following the shuffle wiring and digit routing must
// arrive at exactly dest.
func TestAllPathsDeliver(t *testing.T) {
	for _, cfg := range tableShapes {
		top := MustNew(cfg.k, cfg.n)
		for src := 0; src < cfg.n; src++ {
			for dest := 0; dest < cfg.n; dest++ {
				hops := path(top, src, dest)
				if len(hops) != top.Stages() {
					t.Fatalf("path %d->%d has %d hops", src, dest, len(hops))
				}
				last := hops[len(hops)-1]
				if got := top.LastStageOutput(last.sw, last.out); got != dest {
					t.Fatalf("k=%d n=%d: path %d->%d delivers to %d (hops %v)",
						cfg.k, cfg.n, src, dest, got, hops)
				}
			}
		}
	}
}

// TestStageWiringConsistent checks that the route the tables give
// (FirstStageSwitch, RouteDigit, NextStage) is the reference path hop
// for hop.
func TestStageWiringConsistent(t *testing.T) {
	for _, cfg := range tableShapes {
		top := MustNew(cfg.k, cfg.n)
		for src := 0; src < cfg.n; src++ {
			for dest := 0; dest < cfg.n; dest++ {
				sw, port := top.FirstStageSwitch(src)
				for s, want := range path(top, src, dest) {
					got := hop{s, sw, port, top.RouteDigit(dest, s)}
					if got != want {
						t.Fatalf("k=%d n=%d: %d->%d stage %d: tables give %v, reference %v",
							cfg.k, cfg.n, src, dest, s, got, want)
					}
					sw, port = top.NextStage(sw, got.out)
				}
			}
		}
	}
}

func TestInverseShuffle(t *testing.T) {
	for _, cfg := range []struct{ k, n int }{{2, 8}, {4, 64}, {4, 16}, {8, 64}} {
		top := MustNew(cfg.k, cfg.n)
		for x := 0; x < cfg.n; x++ {
			if got := top.InverseShuffle(top.Shuffle(x)); got != x {
				t.Fatalf("k=%d n=%d: InverseShuffle(Shuffle(%d)) = %d", cfg.k, cfg.n, x, got)
			}
			if got := top.Shuffle(top.InverseShuffle(x)); got != x {
				t.Fatalf("k=%d n=%d: Shuffle(InverseShuffle(%d)) = %d", cfg.k, cfg.n, x, got)
			}
		}
	}
}

// TestUniqueFirstStagePorts: the pre-stage shuffle must spread the 64
// sources across all 64 stage-0 input ports bijectively.
func TestUniqueFirstStagePorts(t *testing.T) {
	top := MustNew(4, 64)
	seen := map[[2]int]bool{}
	for src := 0; src < 64; src++ {
		sw, port := top.FirstStageSwitch(src)
		key := [2]int{sw, port}
		if seen[key] {
			t.Fatalf("two sources share stage-0 port %v", key)
		}
		seen[key] = true
	}
}
