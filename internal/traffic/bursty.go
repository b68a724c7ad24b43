package traffic

import (
	"fmt"

	"damq/internal/checkpoint"
	"damq/internal/rng"
)

// Bursty models multi-packet messages: each source alternates between
// idle periods and messages of geometrically distributed length whose
// packets all go to one destination, back to back — the traffic shape the
// ComCoBB's message/virtual-circuit design implies (Section 3 of the
// paper: "messages can be made up of multiple packets"). Burstiness
// stresses a single destination queue at a time, which is exactly where
// buffer organization matters.
type Bursty struct {
	n         int
	load      float64
	meanBurst float64
	startP    float64 // per-cycle probability an idle source starts a message
	src       *rng.Source

	remaining []int // packets left in each source's current message
	dest      []int // current message's destination per source
}

// NewBursty builds the pattern. load is the long-run offered load in
// packets per source per cycle; meanBurst is the mean message length in
// packets (>= 1). The idle-period start probability q is derived from the
// renewal equation load = mean / (mean + (1-q)/q).
func NewBursty(n int, load, meanBurst float64, src *rng.Source) (*Bursty, error) {
	if n <= 0 {
		return nil, fmt.Errorf("traffic: destinations must be positive, got %d", n)
	}
	if load < 0 || load > 1 {
		return nil, fmt.Errorf("traffic: load %v out of [0,1]", load)
	}
	if meanBurst < 1 {
		return nil, fmt.Errorf("traffic: mean burst %v must be >= 1", meanBurst)
	}
	b := &Bursty{
		n:         n,
		load:      load,
		meanBurst: meanBurst,
		src:       src,
		remaining: make([]int, n),
		dest:      make([]int, n),
	}
	if load > 0 {
		b.startP = load / (load + meanBurst*(1-load))
	}
	return b, nil
}

// Generate implements Pattern.
func (b *Bursty) Generate(src int) (int, bool, bool) {
	if src < 0 || src >= len(b.remaining) {
		panic(fmt.Sprintf("traffic: bursty source %d out of range", src))
	}
	if b.remaining[src] > 0 {
		b.remaining[src]--
		return b.dest[src], false, true
	}
	if b.startP == 0 || !b.src.Bool(b.startP) {
		return 0, false, false
	}
	length := b.src.Geometric(1 / b.meanBurst)
	b.remaining[src] = length - 1
	b.dest[src] = b.src.Intn(b.n)
	return b.dest[src], false, true
}

// Load implements Pattern.
func (b *Bursty) Load() float64 { return b.load }

// String implements Pattern.
func (b *Bursty) String() string {
	return fmt.Sprintf("bursty(load=%.3g, mean burst %.3g)", b.load, b.meanBurst)
}

// Walk implements Pattern: the random stream, then the per-source burst
// registers — packets left in each source's current message, and that
// message's destination — validated against the pattern's geometry.
func (b *Bursty) Walk(c *checkpoint.Codec) error {
	if err := b.src.Walk(c); err != nil {
		return err
	}
	for _, regs := range [][]int{b.remaining, b.dest} {
		if n := c.FixedLen(len(regs)); n != len(regs) {
			return fmt.Errorf("traffic: burst state for %d inputs loaded into %d-input pattern", n, len(regs))
		}
		for i := range regs {
			c.Int(&regs[i])
		}
	}
	if !c.Decoding() {
		return nil
	}
	for i := range b.remaining {
		if b.remaining[i] < 0 {
			return fmt.Errorf("traffic: negative burst remainder %d", b.remaining[i])
		}
		if b.dest[i] < 0 || b.dest[i] >= b.n {
			return fmt.Errorf("traffic: burst destination %d out of range [0, %d)", b.dest[i], b.n)
		}
	}
	return nil
}
