package sw

import (
	"fmt"

	"damq/internal/arbiter"
	"damq/internal/packet"
	"damq/internal/rng"
)

// CentralSwitch models the buffer organization the paper's Section 2
// rejects before arriving at input buffering: one central pool shared by
// every input port, organized as per-output queues. Theoretically a
// single shared pool beats partitioned ones ("a single queue for
// multiple servers is more efficient than multiple queues with the same
// total storage") — but Fujimoto's simulations found that busy inputs
// "hog" the shared memory and starve traffic arriving on quiet inputs,
// and a shared multi-write pool is hard to build at link rate. This type
// exists to reproduce the hogging effect; see the experiments package.
//
// The model is idealized in the central pool's favor: every input can
// write in the same cycle (no write-port limit) and every output reads
// its queue head independently — the pathology demonstrated is therefore
// purely the shared-storage dynamics, not an artifact of modeled port
// limits.
type CentralSwitch struct {
	ports    int
	capacity int // shared slots
	used     int
	queues   [][]*packet.Packet // per output
}

// NewCentral builds a central-pool switch with the given shared capacity.
func NewCentral(ports, capacity int) (*CentralSwitch, error) {
	if ports <= 0 || capacity <= 0 {
		return nil, fmt.Errorf("sw: central switch needs positive ports and capacity")
	}
	return &CentralSwitch{
		ports:    ports,
		capacity: capacity,
		queues:   make([][]*packet.Packet, ports),
	}, nil
}

// Free reports unused shared slots.
func (c *CentralSwitch) Free() int { return c.capacity - c.used }

// Offer stores p (routed: OutPort set) if the shared pool has room.
func (c *CentralSwitch) Offer(p *packet.Packet) bool {
	if p.OutPort < 0 || p.OutPort >= c.ports {
		return false
	}
	if p.Slots > c.Free() {
		return false
	}
	c.used += p.Slots
	c.queues[p.OutPort] = append(c.queues[p.OutPort], p)
	return true
}

// Depart pops the head of every non-empty output queue (each output
// transmits one packet per cycle) and returns how many left.
func (c *CentralSwitch) Depart() int {
	n := 0
	for out := range c.queues {
		q := c.queues[out]
		if len(q) == 0 {
			continue
		}
		c.used -= q[0].Slots
		q[0] = nil
		c.queues[out] = q[1:]
		if len(c.queues[out]) == 0 {
			c.queues[out] = nil
		}
		n++
	}
	return n
}

// HogResult captures per-input acceptance under the hogging scenario.
type HogResult struct {
	Arrivals  []int64 // per input
	Discarded []int64 // per input
}

// DiscardFraction returns input i's discard fraction.
func (r HogResult) DiscardFraction(i int) float64 {
	if r.Arrivals[i] == 0 {
		return 0
	}
	return float64(r.Discarded[i]) / float64(r.Arrivals[i])
}

// hogTraffic draws one cycle of the §2 hogging scenario for input in on
// an n-port switch: inputs 0 and 1 flood output 0 (2x oversubscribed),
// the remaining inputs offer light traffic to the other outputs.
func hogTraffic(n, in int, lightLoad float64, src *rng.Source) (dest int, ok bool) {
	if in <= 1 {
		return 0, true // full load toward the contended output
	}
	if !src.Bool(lightLoad) {
		return 0, false
	}
	return 1 + src.Intn(n-1), true // uniform over the idle outputs
}

// RunCentralHog simulates the central-pool switch under the hogging
// scenario and returns per-input discard statistics.
func RunCentralHog(ports, capacity int, lightLoad float64, cycles int64, src *rng.Source) (HogResult, error) {
	cs, err := NewCentral(ports, capacity)
	if err != nil {
		return HogResult{}, err
	}
	res := HogResult{
		Arrivals:  make([]int64, ports),
		Discarded: make([]int64, ports),
	}
	var alloc packet.Alloc
	for cyc := int64(0); cyc < cycles; cyc++ {
		cs.Depart()
		for in := 0; in < ports; in++ {
			dest, ok := hogTraffic(ports, in, lightLoad, src)
			if !ok {
				continue
			}
			res.Arrivals[in]++
			p := alloc.New(in, dest, 1, cyc)
			p.OutPort = dest
			if !cs.Offer(p) {
				res.Discarded[in]++
			}
		}
	}
	return res, nil
}

// RunPartitionedHog runs the identical scenario against a switch with
// per-input DAMQ buffers of capacity/ports slots each (equal total
// storage), using the standard switch machinery.
func (s *Switch) RunPartitionedHog(lightLoad float64, cycles int64, src *rng.Source) HogResult {
	n := s.cfg.Ports
	res := HogResult{
		Arrivals:  make([]int64, n),
		Discarded: make([]int64, n),
	}
	var alloc packet.Alloc
	var grants []arbiter.Grant
	for cyc := int64(0); cyc < cycles; cyc++ {
		grants = s.Arbitrate(nil, grants[:0])
		for _, g := range grants {
			s.PopGrant(g)
		}
		for in := 0; in < n; in++ {
			dest, ok := hogTraffic(n, in, lightLoad, src)
			if !ok {
				continue
			}
			res.Arrivals[in]++
			p := alloc.New(in, dest, 1, cyc)
			p.OutPort = dest
			if !s.Offer(in, p) {
				res.Discarded[in]++
			}
		}
	}
	return res
}
