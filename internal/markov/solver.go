package markov

import (
	"fmt"
	"math"
)

// SteadyGaussSeidel computes the stationary distribution by Gauss-Seidel
// sweeps over the balance equations pi = pi P, using in-place updates so
// fresh values propagate within a sweep. For the switch chains it
// typically converges in far fewer sweeps than power iteration needs
// steps — the solver ablation benchmark quantifies this — at the cost of
// needing the transposed (incoming-arc) structure.
func (c *Chain) SteadyGaussSeidel() ([]float64, error) {
	n := len(c.keys)
	if n == 0 {
		return nil, fmt.Errorf("markov: empty chain")
	}

	// Build incoming arcs (transpose) and per-state self-loop weight.
	type inArc struct {
		from int
		p    float64
	}
	incoming := make([][]inArc, n)
	selfP := make([]float64, n)
	for i, row := range c.rows {
		for _, e := range row {
			if e.to == i {
				selfP[i] = e.p
				continue
			}
			incoming[e.to] = append(incoming[e.to], inArc{from: i, p: e.p})
		}
	}

	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for sweep := 0; sweep < maxIter; sweep++ {
		delta := 0.0
		for i := 0; i < n; i++ {
			sum := 0.0
			for _, a := range incoming[i] {
				sum += pi[a.from] * a.p
			}
			// pi_i = sum_{j != i} pi_j P_ji + pi_i P_ii
			// => pi_i (1 - P_ii) = sum  => pi_i = sum / (1 - P_ii)
			denom := 1 - selfP[i]
			var v float64
			if denom <= 1e-15 {
				// Absorbing state: it must carry all mass; handled by
				// normalization below.
				v = pi[i] + sum
			} else {
				v = sum / denom
			}
			delta += math.Abs(v - pi[i])
			pi[i] = v
		}
		// Normalize each sweep (Gauss-Seidel on a singular system drifts).
		total := 0.0
		for _, v := range pi {
			total += v
		}
		if total <= 0 {
			return nil, fmt.Errorf("markov: gauss-seidel lost all probability mass")
		}
		for i := range pi {
			pi[i] /= total
		}
		if delta < tol*float64(n) {
			return pi, nil
		}
	}
	return nil, fmt.Errorf("markov: gauss-seidel did not converge in %d sweeps", maxIter)
}

// MixingTime estimates how many steps the chain needs from its initial
// state until the state distribution is within tvTol total-variation
// distance of the stationary distribution pi. The network simulators use
// it to justify their warm-up lengths; it is exact for the chain, not an
// eigenvalue bound.
func (c *Chain) MixingTime(pi []float64, tvTol float64, maxSteps int) (int, error) {
	if tvTol <= 0 {
		return 0, fmt.Errorf("markov: tvTol must be positive")
	}
	if maxSteps <= 0 {
		maxSteps = 1_000_000
	}
	n := len(c.keys)
	cur := make([]float64, n)
	next := make([]float64, n)
	cur[0] = 1
	for step := 0; step <= maxSteps; step++ {
		tv := 0.0
		for i := range cur {
			tv += math.Abs(cur[i] - pi[i])
		}
		if tv/2 <= tvTol {
			return step, nil
		}
		for i := range next {
			next[i] = 0
		}
		for i, row := range c.rows {
			m := cur[i]
			if m == 0 {
				continue
			}
			for _, e := range row {
				next[e.to] += m * e.p
			}
		}
		cur, next = next, cur
	}
	return 0, fmt.Errorf("markov: chain did not mix to %v within %d steps", tvTol, maxSteps)
}
