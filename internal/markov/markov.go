// Package markov provides a small exact Markov-chain engine: reachable
// state enumeration from a model's transition function, a sparse
// transition matrix, steady-state solution, and expected reward rates.
//
// The paper (Section 4.1) evaluates 2×2 discarding switches by Markov
// analysis; package markov2x2 defines the per-buffer-type models, and this
// package does the numerical work. The engine is generic over any finite
// discrete-time chain whose states the model encodes as uint64 keys.
package markov

import (
	"fmt"
	"math"
)

// Arc is one outgoing transition: with probability P the chain moves to
// state To, collecting the per-transition Rewards (e.g. packets arrived,
// packets discarded).
type Arc struct {
	To      uint64
	P       float64
	Rewards []float64
}

// Model defines a chain. Implementations must be deterministic: Next must
// always return the same distribution for the same state.
type Model interface {
	// Initial is the key of the start state (typically "empty switch").
	Initial() uint64
	// Next appends state s's outgoing arcs to dst and returns it. The
	// arcs' probabilities must sum to 1 (within tolerance); the engine
	// validates this during enumeration. The arcs' Rewards vectors may
	// be scratch the model overwrites on its next call: the engine reads
	// them before it calls Next again.
	Next(s uint64, dst []Arc) []Arc
	// NumRewards is the length of every arc's Rewards vector.
	NumRewards() int
}

// Chain is an enumerated, indexed model ready to solve.
type Chain struct {
	keys   []uint64       // state index -> key
	index  map[uint64]int // key -> state index
	rows   [][]entry      // sparse rows: rows[i] = outgoing arcs of state i
	reward [][]float64    // reward[i][r] = expected reward r leaving state i
	nr     int
}

type entry struct {
	to int
	p  float64
}

// probTol is the tolerance for per-state probability normalization.
const probTol = 1e-9

// Build enumerates all states reachable from model.Initial and indexes
// the transition structure. It fails if probabilities do not normalize or
// reward vectors have inconsistent length. maxStates guards against
// runaway models (0 means no limit).
func Build(model Model, maxStates int) (*Chain, error) {
	c := &Chain{
		index: make(map[uint64]int),
		nr:    model.NumRewards(),
	}
	var frontier []uint64
	add := func(key uint64) int {
		if i, ok := c.index[key]; ok {
			return i
		}
		i := len(c.keys)
		c.keys = append(c.keys, key)
		c.index[key] = i
		c.rows = append(c.rows, nil)
		c.reward = append(c.reward, make([]float64, c.nr))
		frontier = append(frontier, key)
		return i
	}
	add(model.Initial())

	var arcs []Arc
	for len(frontier) > 0 {
		key := frontier[0]
		frontier = frontier[1:]
		i := c.index[key]
		arcs = model.Next(key, arcs[:0])
		if len(arcs) == 0 {
			return nil, fmt.Errorf("markov: state %#x has no transitions", key)
		}
		total := 0.0
		// Merge duplicate targets while building the row.
		rowIdx := make(map[int]int, len(arcs))
		for _, a := range arcs {
			if a.P < 0 {
				return nil, fmt.Errorf("markov: state %#x has negative probability arc", key)
			}
			if a.P == 0 {
				continue
			}
			if len(a.Rewards) != c.nr {
				return nil, fmt.Errorf("markov: state %#x arc has %d rewards, model declares %d",
					key, len(a.Rewards), c.nr)
			}
			total += a.P
			j := add(a.To)
			if k, ok := rowIdx[j]; ok {
				c.rows[i][k].p += a.P
			} else {
				rowIdx[j] = len(c.rows[i])
				c.rows[i] = append(c.rows[i], entry{to: j, p: a.P})
			}
			for r, v := range a.Rewards {
				c.reward[i][r] += a.P * v
			}
		}
		if math.Abs(total-1) > probTol {
			return nil, fmt.Errorf("markov: state %#x probabilities sum to %v", key, total)
		}
		if maxStates > 0 && len(c.keys) > maxStates {
			return nil, fmt.Errorf("markov: more than %d reachable states", maxStates)
		}
	}
	return c, nil
}

// NumStates reports the size of the reachable state space.
func (c *Chain) NumStates() int { return len(c.keys) }

// Key returns the model key of state index i.
func (c *Chain) Key(i int) uint64 { return c.keys[i] }

// The steady-state solvers stop once an iteration changes the
// distribution by less than tol in L1 norm (Gauss-Seidel scales it by
// the state count) and give up after maxIter iterations.
const (
	tol     = 1e-12
	maxIter = 1_000_000
)

// Steady computes the stationary distribution by power iteration
// (pi <- pi P). The chains arising from the switch models are finite,
// irreducible and aperiodic (self-loops exist at the empty state for
// load < 1), so the iteration converges geometrically.
func (c *Chain) Steady() ([]float64, error) {
	n := len(c.keys)
	if n == 0 {
		return nil, fmt.Errorf("markov: empty chain")
	}
	pi := make([]float64, n)
	next := make([]float64, n)
	pi[0] = 1
	for iter := 0; iter < maxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		for i, row := range c.rows {
			m := pi[i]
			if m == 0 {
				continue
			}
			for _, e := range row {
				next[e.to] += m * e.p
			}
		}
		// Normalize to shed rounding drift, then test convergence.
		sum := 0.0
		for _, v := range next {
			sum += v
		}
		delta := 0.0
		for i := range next {
			next[i] /= sum
			delta += math.Abs(next[i] - pi[i])
		}
		pi, next = next, pi
		if delta < tol {
			return pi, nil
		}
	}
	return nil, fmt.Errorf("markov: power iteration did not converge in %d iterations", maxIter)
}

// RewardRates returns the long-run average reward per step for each reward
// dimension under stationary distribution pi.
func (c *Chain) RewardRates(pi []float64) []float64 {
	out := make([]float64, c.nr)
	for i, w := range pi {
		for r := 0; r < c.nr; r++ {
			out[r] += w * c.reward[i][r]
		}
	}
	return out
}
