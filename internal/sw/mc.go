package sw

import (
	"damq/internal/arbiter"
	"damq/internal/packet"
	"damq/internal/rng"
)

// MCResult summarizes a standalone Monte-Carlo switch run.
type MCResult struct {
	Cycles    int64
	Arrivals  int64
	Discarded int64
	Delivered int64
	// MeanOccupancy is the time-averaged number of packets in the switch.
	MeanOccupancy float64
}

// DiscardFraction is the probability estimate that an arriving packet is
// discarded — the quantity tabulated in the paper's Table 2.
func (r MCResult) DiscardFraction() float64 {
	if r.Arrivals == 0 {
		return 0
	}
	return float64(r.Discarded) / float64(r.Arrivals)
}

// RunDiscarding simulates a standalone discarding switch for the given
// number of long cycles. Each cycle every input port receives a packet
// with probability load, addressed to a uniformly random output. The
// cycle order matches the Markov models: departures first (arbitration on
// the pre-arrival state), then arrivals, which are discarded if they do
// not fit. Packets leaving the switch exit the system; they and the
// discarded ones go back to the run's allocator, so a steady-state cycle
// allocates nothing.
func (s *Switch) RunDiscarding(load float64, cycles int64, src *rng.Source) MCResult {
	n := s.cfg.Ports
	var alloc packet.Alloc
	var res MCResult
	var grants []arbiter.Grant
	occupancySum := 0.0

	for c := int64(0); c < cycles; c++ {
		// Departures.
		grants = s.Arbitrate(nil, grants[:0])
		for _, g := range grants {
			alloc.Recycle(s.PopGrant(g))
			res.Delivered++
		}
		// Arrivals.
		for in := 0; in < n; in++ {
			if !src.Bool(load) {
				continue
			}
			res.Arrivals++
			dest := src.Intn(n)
			p := alloc.New(in, dest, 1, c)
			p.OutPort = dest
			if !s.Offer(in, p) {
				res.Discarded++
				alloc.Recycle(p)
			}
		}
		occupancySum += float64(s.Len())
	}
	res.Cycles = cycles
	if cycles > 0 {
		res.MeanOccupancy = occupancySum / float64(cycles)
	}
	return res
}
