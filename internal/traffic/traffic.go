// Package traffic provides the workload generators driving the network
// simulations: uniform random traffic, the 5% hot-spot pattern of Pfister
// and Norton used in the paper's Table 6, fixed permutations, and the
// variable-length extension the paper's conclusion motivates.
package traffic

import (
	"fmt"

	"damq/internal/checkpoint"
	"damq/internal/rng"
)

// Pattern generates, per source and cycle, whether a packet is born and
// where it goes.
type Pattern interface {
	// Generate reports whether source src produces a packet this cycle
	// and, if so, its destination and whether it counts as hot-spot
	// traffic. Implementations draw from their own stream so simulations
	// stay reproducible.
	Generate(src int) (dest int, hot bool, ok bool)
	// Load returns the offered load (packets per source per cycle).
	Load() float64
	// String describes the pattern for logs and table captions.
	String() string
	// Walk walks the pattern's cross-cycle state — its random stream
	// and any per-source registers — through a checkpoint codec
	// (DESIGN.md §13). Decoding validates what it read; a stream error
	// stays on c.
	Walk(c *checkpoint.Codec) error
}

// Uniform generates Bernoulli(load) arrivals with uniformly random
// destinations — the paper's "uniformly distributed" traffic.
type Uniform struct {
	n    int
	load float64
	src  *rng.Source
}

// NewUniform builds a uniform pattern over n destinations.
func NewUniform(n int, load float64, src *rng.Source) (*Uniform, error) {
	if n <= 0 {
		return nil, fmt.Errorf("traffic: destinations must be positive, got %d", n)
	}
	if load < 0 || load > 1 {
		return nil, fmt.Errorf("traffic: load %v out of [0,1]", load)
	}
	return &Uniform{n: n, load: load, src: src}, nil
}

// Generate implements Pattern.
func (u *Uniform) Generate(int) (int, bool, bool) {
	if !u.src.Bool(u.load) {
		return 0, false, false
	}
	return u.src.Intn(u.n), false, true
}

// Load implements Pattern.
func (u *Uniform) Load() float64 { return u.load }

// String implements Pattern.
func (u *Uniform) String() string { return fmt.Sprintf("uniform(load=%.3g)", u.load) }

// Walk implements Pattern.
func (u *Uniform) Walk(c *checkpoint.Codec) error { return u.src.Walk(c) }

// HotModule is the hot-spot destination: every Table 6 run aims its hot
// spot at memory module 0.
const HotModule = 0

// HotSpot sends a fraction of all packets to HotModule and the rest
// uniformly: Pfister & Norton's hot-spot model. With fraction h, the
// hot module receives offered traffic load*(h*N + (1-h)) and therefore
// saturates the whole network near 1/(h*N + 1-h) — ≈ 0.241 for h = 5%,
// N = 64, which is Table 6's universal saturation point.
type HotSpot struct {
	n        int
	load     float64
	fraction float64
	src      *rng.Source
}

// NewHotSpot builds a hot-spot pattern. fraction is the probability a
// generated packet is re-addressed to HotModule.
func NewHotSpot(n int, load, fraction float64, src *rng.Source) (*HotSpot, error) {
	if n <= 0 {
		return nil, fmt.Errorf("traffic: destinations must be positive, got %d", n)
	}
	if load < 0 || load > 1 {
		return nil, fmt.Errorf("traffic: load %v out of [0,1]", load)
	}
	if fraction < 0 || fraction > 1 {
		return nil, fmt.Errorf("traffic: hot fraction %v out of [0,1]", fraction)
	}
	return &HotSpot{n: n, load: load, fraction: fraction, src: src}, nil
}

// Generate implements Pattern.
func (h *HotSpot) Generate(int) (int, bool, bool) {
	if !h.src.Bool(h.load) {
		return 0, false, false
	}
	if h.src.Bool(h.fraction) {
		return HotModule, true, true
	}
	return h.src.Intn(h.n), false, true
}

// Load implements Pattern.
func (h *HotSpot) Load() float64 { return h.load }

// String implements Pattern.
func (h *HotSpot) String() string {
	return fmt.Sprintf("hotspot(load=%.3g, %.1f%%->%d)", h.load, h.fraction*100, HotModule)
}

// Walk implements Pattern.
func (h *HotSpot) Walk(c *checkpoint.Codec) error { return h.src.Walk(c) }

// Permutation sends every source's packets to one fixed destination given
// by a permutation — a conflict-free pattern on an Omega network when the
// permutation is passable, useful for latency floor measurements and
// tests.
type Permutation struct {
	perm []int
	load float64
	src  *rng.Source
}

// NewPermutation builds a fixed-destination pattern. perm must be a
// permutation of [0, n).
func NewPermutation(perm []int, load float64, src *rng.Source) (*Permutation, error) {
	seen := make([]bool, len(perm))
	for _, d := range perm {
		if d < 0 || d >= len(perm) || seen[d] {
			return nil, fmt.Errorf("traffic: not a permutation: %v", perm)
		}
		seen[d] = true
	}
	if load < 0 || load > 1 {
		return nil, fmt.Errorf("traffic: load %v out of [0,1]", load)
	}
	return &Permutation{perm: perm, load: load, src: src}, nil
}

// Identity returns the identity permutation of size n.
func Identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// Generate implements Pattern.
func (p *Permutation) Generate(src int) (int, bool, bool) {
	if !p.src.Bool(p.load) {
		return 0, false, false
	}
	return p.perm[src], false, true
}

// Load implements Pattern.
func (p *Permutation) Load() float64 { return p.load }

// String implements Pattern.
func (p *Permutation) String() string { return fmt.Sprintf("permutation(load=%.3g)", p.load) }

// Walk implements Pattern.
func (p *Permutation) Walk(c *checkpoint.Codec) error { return p.src.Walk(c) }

// Lengths draws packet sizes in slots. Fixed-length experiments use
// Fixed(1); the variable-length extension (paper §5: 1-32 byte packets in
// 8-byte slots) uses UniformLengths(1, 4).
type Lengths interface {
	// Draw returns the next packet's size in slots.
	Draw() int
	// Mean returns the expected size, used to normalize offered load.
	Mean() float64
	// Walk walks the generator's random stream, if it has one, through
	// a checkpoint codec, as Pattern.Walk does.
	Walk(c *checkpoint.Codec) error
}

// Fixed always returns the same size.
type Fixed int

// Draw implements Lengths.
func (f Fixed) Draw() int { return int(f) }

// Mean implements Lengths.
func (f Fixed) Mean() float64 { return float64(f) }

// Walk implements Lengths: a fixed size has no state.
func (Fixed) Walk(*checkpoint.Codec) error { return nil }

// UniformLengths draws uniformly from [Lo, Hi] slots.
type UniformLengths struct {
	Lo, Hi int
	Src    *rng.Source
}

// Draw implements Lengths.
func (u UniformLengths) Draw() int { return u.Src.IntnRange(u.Lo, u.Hi) }

// Mean implements Lengths.
func (u UniformLengths) Mean() float64 { return float64(u.Lo+u.Hi) / 2 }

// Walk implements Lengths.
func (u UniformLengths) Walk(c *checkpoint.Codec) error { return u.Src.Walk(c) }
