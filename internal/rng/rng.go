// Package rng provides a small, deterministic, splittable pseudo-random
// number generator for simulation use.
//
// Simulations in this repository must be exactly reproducible from a seed,
// independent of Go version and of the number of independent random streams
// in use. The standard library's math/rand/v2 would work, but a local
// implementation guarantees the bit stream never changes underneath the
// recorded experiment outputs, and gives us cheap stream splitting: each
// simulated entity (source, switch, arbiter) owns its own stream derived
// from the master seed, so adding an entity never perturbs the draws seen
// by the others.
//
// The core generator is xoshiro256**, seeded through SplitMix64, both as
// published by Blackman and Vigna (public domain reference code).
package rng

import (
	"errors"
	"math"

	"damq/internal/checkpoint"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding so that correlated user seeds (0, 1, 2, ...)
// still produce well-separated xoshiro states.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** generator. The zero value is invalid; create
// sources with New or Source.Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed via SplitMix64.
func New(seed uint64) *Source {
	var src Source
	src.reseed(seed)
	return &src
}

func (s *Source) reseed(seed uint64) {
	sm := seed
	s.s0 = splitMix64(&sm)
	s.s1 = splitMix64(&sm)
	s.s2 = splitMix64(&sm)
	s.s3 = splitMix64(&sm)
	// xoshiro requires a nonzero state; SplitMix64 outputs are zero for
	// at most one of the four words, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Split derives a new independent Source from this one. The parent stream
// advances by one draw; the child is seeded from that draw, so parent and
// child sequences are uncorrelated for simulation purposes.
func (s *Source) Split() *Source {
	child := &Source{}
	child.reseed(s.Uint64())
	return child
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits -> [0,1) with full double precision.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	// Lemire rejection sampling on the high 64 bits of a 128-bit product.
	for {
		v := s.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= -n%n {
			// Accept: the product's low word is outside the biased zone.
			// (The standard condition is lo >= (2^64 - n) mod n == -n % n.)
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32

	t := aLo * bLo
	lo32 := t & mask32
	carry := t >> 32

	t = aHi*bLo + carry
	mid1 := t & mask32
	carry = t >> 32

	t = aLo*bHi + mid1
	mid2 := t & mask32
	carry2 := t >> 32

	hi = aHi*bHi + carry + carry2
	lo = mid2<<32 | lo32
	return hi, lo
}

// Bool returns true with probability p. Values of p outside [0,1] clamp.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Geometric returns a draw from the geometric distribution on {1, 2, ...}
// with success probability p: the number of Bernoulli(p) trials up to and
// including the first success. It panics unless 0 < p <= 1.
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 1
	}
	u := s.Float64()
	// Inverse CDF: ceil(ln(1-u) / ln(1-p)).
	k := int(math.Ceil(math.Log1p(-u) / math.Log1p(-p)))
	if k < 1 {
		k = 1
	}
	return k
}

// IntnRange returns a uniform int in [lo, hi] inclusive. Panics if hi < lo.
func (s *Source) IntnRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntnRange with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Walk walks the generator's four state words through a checkpoint
// codec (DESIGN.md §13): a restored Source continues the identical
// stream. Decoding rejects the all-zero state, xoshiro's single invalid
// fixed point (the generator would emit zeros forever); a stream error
// stays on c.
func (s *Source) Walk(c *checkpoint.Codec) error {
	c.U64(&s.s0)
	c.U64(&s.s1)
	c.U64(&s.s2)
	c.U64(&s.s3)
	if c.Decoding() && s.s0|s.s1|s.s2|s.s3 == 0 {
		return errors.New("rng: all-zero state is invalid")
	}
	return nil
}
